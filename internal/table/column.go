// Package table implements the tabular data substrate of the OpenBI
// reproduction: a typed, columnar, missing-value-aware in-memory table plus
// readers for the raw open-data formats the paper names in its introduction
// ("open data are generally shared as raw data in formats such as CSV, XML
// or as HTML tables").
//
// A Table holds Numeric and Nominal columns. Missing values are first-class
// (NaN for numeric cells, code -1 for nominal cells) because the whole point
// of the paper is reasoning about incomplete, dirty data rather than
// rejecting it at the door.
package table

import (
	"fmt"
	"math"
)

// Kind is the type of a column.
type Kind int

const (
	// Numeric columns store float64 values; NaN marks a missing cell.
	Numeric Kind = iota
	// Nominal columns store category codes into a per-column dictionary;
	// code -1 marks a missing cell.
	Nominal
)

// String returns "numeric" or "nominal".
func (k Kind) String() string {
	switch k {
	case Numeric:
		return "numeric"
	case Nominal:
		return "nominal"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// MissingCat is the category code that marks a missing nominal cell.
const MissingCat = -1

// Column is a single typed column. Exactly one of Nums/Cats is used,
// according to Kind. Columns are mutable; Table methods keep all columns at
// equal length.
type Column struct {
	Name string
	Kind Kind

	Nums []float64 // used when Kind == Numeric
	Cats []int     // used when Kind == Nominal

	levels []string
	lookup map[string]int
}

// NewNumericColumn returns an empty numeric column.
func NewNumericColumn(name string) *Column {
	return &Column{Name: name, Kind: Numeric}
}

// NewNominalColumn returns an empty nominal column with the given initial
// levels (more levels may be interned later via Code).
func NewNominalColumn(name string, levels ...string) *Column {
	c := &Column{Name: name, Kind: Nominal, lookup: make(map[string]int, len(levels))}
	for _, l := range levels {
		c.Code(l)
	}
	return c
}

// Len returns the number of cells in the column.
func (c *Column) Len() int {
	if c.Kind == Numeric {
		return len(c.Nums)
	}
	return len(c.Cats)
}

// NumLevels returns the number of distinct categories interned so far.
func (c *Column) NumLevels() int { return len(c.levels) }

// Code interns label and returns its category code. It panics on a numeric
// column, which is always a programming error.
func (c *Column) Code(label string) int {
	if c.Kind != Nominal {
		panic("table: Code on numeric column " + c.Name)
	}
	if c.lookup == nil {
		c.lookup = make(map[string]int)
	}
	if code, ok := c.lookup[label]; ok {
		return code
	}
	code := len(c.levels)
	c.levels = append(c.levels, label)
	c.lookup[label] = code
	return code
}

// CodeOf returns the code for label without interning, or MissingCat when
// the label is unknown.
func (c *Column) CodeOf(label string) int {
	if code, ok := c.lookup[label]; ok {
		return code
	}
	return MissingCat
}

// Label returns the label for a category code, or "?" for MissingCat or an
// out-of-range code.
func (c *Column) Label(code int) string {
	if code < 0 || code >= len(c.levels) {
		return "?"
	}
	return c.levels[code]
}

// AppendFloat appends a numeric cell.
func (c *Column) AppendFloat(v float64) { c.Nums = append(c.Nums, v) }

// AppendLabel interns the label and appends the corresponding nominal cell.
func (c *Column) AppendLabel(label string) { c.Cats = append(c.Cats, c.Code(label)) }

// AppendCode appends a raw nominal code (caller guarantees validity).
func (c *Column) AppendCode(code int) { c.Cats = append(c.Cats, code) }

// AppendMissing appends a missing cell of the column's kind.
func (c *Column) AppendMissing() {
	if c.Kind == Numeric {
		c.Nums = append(c.Nums, math.NaN())
	} else {
		c.Cats = append(c.Cats, MissingCat)
	}
}

// IsMissing reports whether cell row is missing.
func (c *Column) IsMissing(row int) bool {
	if c.Kind == Numeric {
		return math.IsNaN(c.Nums[row])
	}
	return c.Cats[row] == MissingCat
}

// SetMissing marks cell row missing.
func (c *Column) SetMissing(row int) {
	if c.Kind == Numeric {
		c.Nums[row] = math.NaN()
	} else {
		c.Cats[row] = MissingCat
	}
}

// MissingCount returns the number of missing cells.
func (c *Column) MissingCount() int {
	n := 0
	for i := 0; i < c.Len(); i++ {
		if c.IsMissing(i) {
			n++
		}
	}
	return n
}

// CellString renders cell row for display; missing cells render as "?".
func (c *Column) CellString(row int) string {
	if c.IsMissing(row) {
		return "?"
	}
	if c.Kind == Numeric {
		v := c.Nums[row]
		if v == math.Trunc(v) && math.Abs(v) < 1e15 {
			return fmt.Sprintf("%d", int64(v))
		}
		return fmt.Sprintf("%g", v)
	}
	return c.Label(c.Cats[row])
}

// Counts returns per-level counts for a nominal column (missing excluded).
func (c *Column) Counts() []int {
	if c.Kind != Nominal {
		return nil
	}
	counts := make([]int, len(c.levels))
	for _, code := range c.Cats {
		if code >= 0 && code < len(counts) {
			counts[code]++
		}
	}
	return counts
}

// Clone returns a deep copy of the column.
func (c *Column) Clone() *Column {
	out := &Column{Name: c.Name, Kind: c.Kind}
	if c.Kind == Numeric {
		out.Nums = append([]float64(nil), c.Nums...)
		return out
	}
	out.Cats = append([]int(nil), c.Cats...)
	out.levels = append([]string(nil), c.levels...)
	out.lookup = make(map[string]int, len(c.levels))
	for i, l := range out.levels {
		out.lookup[l] = i
	}
	return out
}

// Select returns a new column containing the cells at the given rows, in
// order (rows may repeat: this implements both projection and resampling).
func (c *Column) Select(rows []int) *Column {
	out := c.emptyLike()
	if c.Kind == Numeric {
		out.Nums = make([]float64, len(rows))
		for i, r := range rows {
			out.Nums[i] = c.Nums[r]
		}
		return out
	}
	out.Cats = make([]int, len(rows))
	for i, r := range rows {
		out.Cats[i] = c.Cats[r]
	}
	return out
}

// emptyLike returns an empty column with the same name, kind and dictionary.
func (c *Column) emptyLike() *Column {
	out := &Column{Name: c.Name, Kind: c.Kind}
	if c.Kind == Nominal {
		out.levels = append([]string(nil), c.levels...)
		out.lookup = make(map[string]int, len(c.levels))
		for i, l := range out.levels {
			out.lookup[l] = i
		}
	}
	return out
}
