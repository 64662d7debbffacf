package table

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
)

// Table is an in-memory columnar table: a named, ordered collection of
// equally long typed columns. It is the "common representation of data
// structures" every OpenBI stage works on once raw open data has been
// ingested.
type Table struct {
	Name   string
	cols   []*Column
	byName map[string]int

	// shared marks columns whose storage is still shared with another
	// table (see ShallowClone); such a column is cloned on first write.
	// nil for fully owned tables, which is the common case.
	shared []bool
}

// New returns an empty table with the given name.
func New(name string) *Table {
	return &Table{Name: name, byName: make(map[string]int)}
}

// NumRows returns the number of rows (0 for a column-less table).
func (t *Table) NumRows() int {
	if len(t.cols) == 0 {
		return 0
	}
	return t.cols[0].Len()
}

// NumCols returns the number of columns.
func (t *Table) NumCols() int { return len(t.cols) }

// AddColumn appends col to the table. It returns an error when a column of
// the same name exists or when the length disagrees with existing columns.
func (t *Table) AddColumn(col *Column) error {
	if _, dup := t.byName[col.Name]; dup {
		return fmt.Errorf("table %q: duplicate column %q", t.Name, col.Name)
	}
	if len(t.cols) > 0 && col.Len() != t.NumRows() {
		return fmt.Errorf("table %q: column %q has %d rows, table has %d",
			t.Name, col.Name, col.Len(), t.NumRows())
	}
	t.byName[col.Name] = len(t.cols)
	t.cols = append(t.cols, col)
	if t.shared != nil {
		t.shared = append(t.shared, false)
	}
	return nil
}

// MustAddColumn is AddColumn that panics on error; intended for
// construction code whose column names are literals.
func (t *Table) MustAddColumn(col *Column) {
	if err := t.AddColumn(col); err != nil {
		panic(err)
	}
}

// Column returns the i-th column.
func (t *Table) Column(i int) *Column { return t.cols[i] }

// Columns returns the backing column slice (do not mutate its structure).
func (t *Table) Columns() []*Column { return t.cols }

// ColumnIndex returns the index of the named column, or -1.
func (t *Table) ColumnIndex(name string) int {
	if i, ok := t.byName[name]; ok {
		return i
	}
	return -1
}

// ColumnByName returns the named column or nil.
func (t *Table) ColumnByName(name string) *Column {
	i := t.ColumnIndex(name)
	if i < 0 {
		return nil
	}
	return t.cols[i]
}

// ColumnNames returns the names of all columns in order.
func (t *Table) ColumnNames() []string {
	out := make([]string, len(t.cols))
	for i, c := range t.cols {
		out[i] = c.Name
	}
	return out
}

// ColumnName returns the name of column col (Access).
func (t *Table) ColumnName(col int) string { return t.cols[col].Name }

// ColumnKind returns the kind of column col (Access).
func (t *Table) ColumnKind(col int) Kind { return t.cols[col].Kind }

// NumLevels returns the nominal dictionary size of column col (Access).
func (t *Table) NumLevels(col int) int { return t.cols[col].NumLevels() }

// Label returns the label of a nominal code in column col (Access).
func (t *Table) Label(col, code int) string { return t.cols[col].Label(code) }

// Materialize implements Access; a table already is materialized, so it
// returns the receiver. Callers that intend to mutate the result must take
// ownership first (Clone or CopyOnWrite).
func (t *Table) Materialize() *Table { return t }

// Float returns the numeric value at (row, col); NaN when missing.
// It panics when the column is nominal.
func (t *Table) Float(row, col int) float64 {
	c := t.cols[col]
	if c.Kind != Numeric {
		panic(fmt.Sprintf("table %q: Float on nominal column %q", t.Name, c.Name))
	}
	return c.Nums[row]
}

// Cat returns the nominal code at (row, col); MissingCat when missing.
// It panics when the column is numeric.
func (t *Table) Cat(row, col int) int {
	c := t.cols[col]
	if c.Kind != Nominal {
		panic(fmt.Sprintf("table %q: Cat on numeric column %q", t.Name, c.Name))
	}
	return c.Cats[row]
}

// IsMissing reports whether the cell at (row, col) is missing.
func (t *Table) IsMissing(row, col int) bool { return t.cols[col].IsMissing(row) }

// SetFloat stores v at (row, col) of a numeric column.
func (t *Table) SetFloat(row, col int, v float64) { t.OwnedColumn(col).Nums[row] = v }

// SetCat stores nominal code v at (row, col).
func (t *Table) SetCat(row, col int, v int) { t.OwnedColumn(col).Cats[row] = v }

// SetMissing marks the cell at (row, col) missing.
func (t *Table) SetMissing(row, col int) { t.OwnedColumn(col).SetMissing(row) }

// AppendEmptyRow appends one all-missing row and returns its index.
func (t *Table) AppendEmptyRow() int {
	for i := range t.cols {
		t.OwnedColumn(i).AppendMissing()
	}
	return t.NumRows() - 1
}

// ShallowClone returns a new table sharing every column with t. Shared
// columns are cloned lazily on first write (through the Set* mutators or
// OwnedColumn), so a pipeline stage that touches two of fifty columns pays
// for two column copies instead of fifty. The receiver itself is never
// written through the clone.
//
// The sharing is one-directional by design: the receiver is NOT marked
// shared (many goroutines shallow-clone one base table concurrently, so
// the receiver must stay read-only here), which means callers must not
// mutate the base after handing out clones — doing so would reach every
// clone's untouched columns. The experiment pipeline treats reference
// tables as immutable once views or clones of them exist.
func (t *Table) ShallowClone() *Table {
	out := &Table{
		Name:   t.Name,
		cols:   append([]*Column(nil), t.cols...),
		byName: make(map[string]int, len(t.byName)),
		shared: make([]bool, len(t.cols)),
	}
	for name, i := range t.byName {
		out.byName[name] = i
	}
	for i := range out.shared {
		out.shared[i] = true
	}
	return out
}

// OwnedColumn returns column i, first cloning it if its storage is still
// shared with another table. Every code path that mutates column data in
// place must obtain the column through this method (the Table-level Set*
// mutators already do).
func (t *Table) OwnedColumn(i int) *Column {
	if i < len(t.shared) && t.shared[i] {
		t.cols[i] = t.cols[i].Clone()
		t.shared[i] = false
	}
	return t.cols[i]
}

// ReplaceColumn swaps column i for col, which must have the same length;
// the byName index is updated when the name changes. The new column is
// owned by the table.
func (t *Table) ReplaceColumn(i int, col *Column) error {
	if i < 0 || i >= len(t.cols) {
		return fmt.Errorf("table %q: ReplaceColumn index %d out of range", t.Name, i)
	}
	if col.Len() != t.NumRows() {
		return fmt.Errorf("table %q: column %q has %d rows, table has %d",
			t.Name, col.Name, col.Len(), t.NumRows())
	}
	old := t.cols[i]
	if old.Name != col.Name {
		if j, dup := t.byName[col.Name]; dup && j != i {
			return fmt.Errorf("table %q: duplicate column %q", t.Name, col.Name)
		}
		delete(t.byName, old.Name)
		t.byName[col.Name] = i
	}
	t.cols[i] = col
	if t.shared != nil {
		t.shared[i] = false
	}
	return nil
}

// Clone returns a deep copy of the table: every column's cell storage and
// nominal dictionary is copied, so the result is fully owned and mutations
// never reach the receiver. For read-only row/column windows prefer the
// zero-copy View (RowView, ColumnView).
func (t *Table) Clone() *Table {
	out := New(t.Name)
	for _, c := range t.cols {
		out.MustAddColumn(c.Clone())
	}
	return out
}

// SelectRows returns a new table containing the given rows in order, with
// all cell data copied (row indices may repeat). It is the materializing
// primitive behind duplication injection and row filtering; callers that
// only need to read a row subset — fold splits, subsamples — should use the
// zero-copy RowView instead.
func (t *Table) SelectRows(rows []int) *Table {
	out := New(t.Name)
	for _, c := range t.cols {
		out.MustAddColumn(c.Select(rows))
	}
	return out
}

// SelectColumns returns a new table containing only the columns at the
// given indices, with cell data and dictionaries deep-copied so the result
// is independently mutable. For read-only projections use the zero-copy
// ColumnView instead.
func (t *Table) SelectColumns(cols []int) *Table {
	out := New(t.Name)
	for _, i := range cols {
		out.MustAddColumn(t.cols[i].Clone())
	}
	return out
}

// DropColumn returns a deep copy of the table without the named column;
// the receiver is unchanged. Unknown names are ignored.
func (t *Table) DropColumn(name string) *Table {
	out := New(t.Name)
	for _, c := range t.cols {
		if c.Name == name {
			continue
		}
		out.MustAddColumn(c.Clone())
	}
	return out
}

// MissingCells returns the total number of missing cells in the table.
func (t *Table) MissingCells() int {
	n := 0
	for _, c := range t.cols {
		n += c.MissingCount()
	}
	return n
}

// NumericColumnIndices returns the indices of all numeric columns.
func (t *Table) NumericColumnIndices() []int {
	var out []int
	for i, c := range t.cols {
		if c.Kind == Numeric {
			out = append(out, i)
		}
	}
	return out
}

// NominalColumnIndices returns the indices of all nominal columns.
func (t *Table) NominalColumnIndices() []int {
	var out []int
	for i, c := range t.cols {
		if c.Kind == Nominal {
			out = append(out, i)
		}
	}
	return out
}

// Cell tags for AppendRowKey's typed encoding. Missing gets its own tag so
// it can never collide with a real value of either kind.
const (
	rowKeyMissing = 0x00
	rowKeyNumeric = 0x01
	rowKeyNominal = 0x02
)

// AppendRowKey appends row r's canonical key, used by duplicate detection,
// to dst and returns the extended slice. Cells are encoded as typed (kind,
// value) tuples — nominal cells by dictionary code, numeric cells rounded
// to 9 significant digits so that float noise below that threshold still
// keys identically, missing cells by a dedicated tag — so a label that
// happens to be "?" never collides with a missing cell and labels may
// contain arbitrary bytes. Keys are only comparable between rows of the
// same table (codes are per-table dictionary state). Hot callers reuse one
// buffer across rows and look keys up with string(buf), so the per-row key
// costs no allocation.
func (t *Table) AppendRowKey(dst []byte, r int) []byte {
	for _, c := range t.cols {
		if c.IsMissing(r) {
			dst = append(dst, rowKeyMissing)
			continue
		}
		if c.Kind == Numeric {
			// The decimal rendering is self-delimiting: 'g'-format bytes
			// never include control characters, so the next cell's tag
			// (0x00-0x02) cannot be read as part of the number.
			dst = append(dst, rowKeyNumeric)
			dst = strconv.AppendFloat(dst, c.Nums[r], 'g', 9, 64)
		} else {
			dst = append(dst, rowKeyNominal)
			dst = binary.AppendUvarint(dst, uint64(c.Cats[r]))
		}
	}
	return dst
}

// Equal reports whether two sources have identical schema and cell values
// (NaN cells compare equal to NaN cells; nominal cells compare by label,
// so dictionaries need not agree code-for-code). It accepts any mix of
// tables and views and is intended for tests.
func Equal(a, b Access) bool {
	if a.NumCols() != b.NumCols() || a.NumRows() != b.NumRows() {
		return false
	}
	for j := 0; j < a.NumCols(); j++ {
		if a.ColumnName(j) != b.ColumnName(j) || a.ColumnKind(j) != b.ColumnKind(j) {
			return false
		}
		for r := 0; r < a.NumRows(); r++ {
			switch {
			case a.IsMissing(r, j) != b.IsMissing(r, j):
				return false
			case a.IsMissing(r, j):
				// both missing: equal
			case a.ColumnKind(j) == Numeric:
				va, vb := a.Float(r, j), b.Float(r, j)
				if va != vb && !(math.IsNaN(va) && math.IsNaN(vb)) {
					return false
				}
			default:
				if a.Label(j, a.Cat(r, j)) != b.Label(j, b.Cat(r, j)) {
					return false
				}
			}
		}
	}
	return true
}
