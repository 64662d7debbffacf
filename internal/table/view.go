package table

// View is an immutable zero-copy window onto a base table: an optional row
// indirection (fold splits, subsamples, bootstrap resamples) combined with
// an optional column projection (attribute selection). It shares column
// storage — including nominal dictionaries — with its base, so constructing
// one costs O(selected rows + selected columns) index space instead of
// O(cells) cell copies.
//
// Views are read-only by construction: they implement Access but expose no
// mutators. Code that needs to mutate calls Materialize (or CopyOnWrite)
// first. A view observes later in-place mutations of its base table, so the
// experiment pipeline only takes views of tables it has stopped writing to.
type View struct {
	base *Table
	rows []int // base row per view row; nil = all base rows in order
	cols []int // base column per view column; nil = all base columns
}

// RowView returns a zero-copy view of a restricted to the given rows (in
// order, repeats allowed). Views compose: taking a RowView of a View maps
// the indices through the existing indirection, so chains of fold splits
// and bootstrap resamples stay one indirection deep. The rows slice is
// retained and must not be mutated by the caller afterwards.
func RowView(a Access, rows []int) Access {
	switch s := a.(type) {
	case *Table:
		return &View{base: s, rows: rows}
	case *View:
		if s.rows == nil {
			return &View{base: s.base, rows: rows, cols: s.cols}
		}
		mapped := make([]int, len(rows))
		for i, r := range rows {
			mapped[i] = s.rows[r]
		}
		return &View{base: s.base, rows: mapped, cols: s.cols}
	default:
		return &View{base: a.Materialize(), rows: rows}
	}
}

// ColumnView returns a zero-copy view of a restricted to the given columns
// (in order). The cols slice is retained and must not be mutated by the
// caller afterwards.
func ColumnView(a Access, cols []int) Access {
	switch s := a.(type) {
	case *Table:
		return &View{base: s, cols: cols}
	case *View:
		if s.cols == nil {
			return &View{base: s.base, rows: s.rows, cols: cols}
		}
		mapped := make([]int, len(cols))
		for i, c := range cols {
			mapped[i] = s.cols[c]
		}
		return &View{base: s.base, rows: s.rows, cols: mapped}
	default:
		return &View{base: a.Materialize(), cols: cols}
	}
}

// Base returns the concrete table the view reads from (read-only for view
// holders). Together with RowIndex and ColIndex it lets hot loops resolve
// the indirection once and then read column storage directly.
func (v *View) Base() *Table { return v.base }

// RowIndex returns the base-row-per-view-row indirection, or nil when the
// view exposes all base rows in order. Callers must not mutate it.
func (v *View) RowIndex() []int { return v.rows }

// ColIndex returns the base-column-per-view-column projection, or nil when
// the view exposes all base columns. Callers must not mutate it.
func (v *View) ColIndex() []int { return v.cols }

// baseRow maps a view row index to a base row index.
func (v *View) baseRow(r int) int {
	if v.rows == nil {
		return r
	}
	return v.rows[r]
}

// baseCol maps a view column index to a base column index.
func (v *View) baseCol(c int) int {
	if v.cols == nil {
		return c
	}
	return v.cols[c]
}

// NumRows implements Access.
func (v *View) NumRows() int {
	if v.rows == nil {
		return v.base.NumRows()
	}
	return len(v.rows)
}

// NumCols implements Access.
func (v *View) NumCols() int {
	if v.cols == nil {
		return v.base.NumCols()
	}
	return len(v.cols)
}

// ColumnIndex implements Access; with a column projection it returns the
// view-relative index of the named column, or -1.
func (v *View) ColumnIndex(name string) int {
	if v.cols == nil {
		return v.base.ColumnIndex(name)
	}
	for i, c := range v.cols {
		if v.base.cols[c].Name == name {
			return i
		}
	}
	return -1
}

// ColumnName implements Access.
func (v *View) ColumnName(col int) string { return v.base.cols[v.baseCol(col)].Name }

// ColumnKind implements Access.
func (v *View) ColumnKind(col int) Kind { return v.base.cols[v.baseCol(col)].Kind }

// ColumnNames implements Access.
func (v *View) ColumnNames() []string {
	out := make([]string, v.NumCols())
	for i := range out {
		out[i] = v.ColumnName(i)
	}
	return out
}

// NumericColumnIndices implements Access (view-relative indices).
func (v *View) NumericColumnIndices() []int {
	var out []int
	for i, n := 0, v.NumCols(); i < n; i++ {
		if v.ColumnKind(i) == Numeric {
			out = append(out, i)
		}
	}
	return out
}

// NominalColumnIndices implements Access (view-relative indices).
func (v *View) NominalColumnIndices() []int {
	var out []int
	for i, n := 0, v.NumCols(); i < n; i++ {
		if v.ColumnKind(i) == Nominal {
			out = append(out, i)
		}
	}
	return out
}

// NumLevels implements Access; the dictionary is shared with the base, so
// codes agree across every view of one table.
func (v *View) NumLevels(col int) int { return v.base.cols[v.baseCol(col)].NumLevels() }

// Label implements Access.
func (v *View) Label(col, code int) string { return v.base.cols[v.baseCol(col)].Label(code) }

// Float implements Access.
func (v *View) Float(row, col int) float64 { return v.base.Float(v.baseRow(row), v.baseCol(col)) }

// Cat implements Access.
func (v *View) Cat(row, col int) int { return v.base.Cat(v.baseRow(row), v.baseCol(col)) }

// IsMissing implements Access.
func (v *View) IsMissing(row, col int) bool {
	return v.base.cols[v.baseCol(col)].IsMissing(v.baseRow(row))
}

// Materialize implements Access: it gathers the viewed cells into a fresh,
// fully owned *Table, exactly as the pre-view SelectRows/SelectColumns
// copies did (nominal dictionaries are deep-copied in code order, so level
// codes are preserved).
func (v *View) Materialize() *Table {
	out := New(v.base.Name)
	for i, n := 0, v.NumCols(); i < n; i++ {
		c := v.base.cols[v.baseCol(i)]
		if v.rows == nil {
			out.MustAddColumn(c.Clone())
		} else {
			out.MustAddColumn(c.Select(v.rows))
		}
	}
	return out
}
