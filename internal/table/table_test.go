package table

import (
	"math"
	"testing"
	"testing/quick"
)

// makeSample builds a small mixed table used across tests:
//
//	age (numeric), city (nominal), income (numeric with one missing)
func makeSample() *Table {
	t := New("people")
	age := NewNumericColumn("age")
	for _, v := range []float64{25, 40, 31, 58} {
		age.AppendFloat(v)
	}
	city := NewNominalColumn("city")
	for _, l := range []string{"Alicante", "Berlin", "Alicante", "Matanzas"} {
		city.AppendLabel(l)
	}
	income := NewNumericColumn("income")
	income.AppendFloat(30000)
	income.AppendMissing()
	income.AppendFloat(25000)
	income.AppendFloat(41000)
	t.MustAddColumn(age)
	t.MustAddColumn(city)
	t.MustAddColumn(income)
	return t
}

func TestTableShape(t *testing.T) {
	tb := makeSample()
	if tb.NumRows() != 4 || tb.NumCols() != 3 {
		t.Fatalf("shape = %dx%d, want 4x3", tb.NumRows(), tb.NumCols())
	}
}

func TestAddColumnDuplicate(t *testing.T) {
	tb := makeSample()
	err := tb.AddColumn(NewNumericColumn("age"))
	if err == nil {
		t.Fatal("duplicate column name should error")
	}
}

func TestAddColumnLengthMismatch(t *testing.T) {
	tb := makeSample()
	short := NewNumericColumn("short")
	short.AppendFloat(1)
	if err := tb.AddColumn(short); err == nil {
		t.Fatal("length mismatch should error")
	}
}

func TestColumnLookup(t *testing.T) {
	tb := makeSample()
	if tb.ColumnIndex("city") != 1 {
		t.Fatalf("ColumnIndex(city) = %d, want 1", tb.ColumnIndex("city"))
	}
	if tb.ColumnIndex("nope") != -1 {
		t.Fatal("missing column should index -1")
	}
	if tb.ColumnByName("nope") != nil {
		t.Fatal("missing column should be nil")
	}
	if got := tb.ColumnByName("age").Name; got != "age" {
		t.Fatalf("ColumnByName = %q", got)
	}
}

func TestCellAccess(t *testing.T) {
	tb := makeSample()
	if tb.Float(0, 0) != 25 {
		t.Fatalf("Float(0,0) = %v", tb.Float(0, 0))
	}
	if tb.Column(1).Label(tb.Cat(1, 1)) != "Berlin" {
		t.Fatal("Cat lookup failed")
	}
	if !tb.IsMissing(1, 2) {
		t.Fatal("income[1] should be missing")
	}
	if tb.IsMissing(0, 2) {
		t.Fatal("income[0] should be observed")
	}
}

func TestFloatOnNominalPanics(t *testing.T) {
	tb := makeSample()
	defer func() {
		if recover() == nil {
			t.Fatal("Float on nominal column should panic")
		}
	}()
	tb.Float(0, 1)
}

func TestCatOnNumericPanics(t *testing.T) {
	tb := makeSample()
	defer func() {
		if recover() == nil {
			t.Fatal("Cat on numeric column should panic")
		}
	}()
	tb.Cat(0, 0)
}

func TestCloneIsDeep(t *testing.T) {
	tb := makeSample()
	cp := tb.Clone()
	cp.SetFloat(0, 0, 99)
	cp.SetCat(0, 1, cp.Column(1).Code("Havana"))
	if tb.Float(0, 0) == 99 {
		t.Fatal("clone shares numeric storage")
	}
	if tb.Column(1).NumLevels() == cp.Column(1).NumLevels() {
		t.Fatal("clone shares nominal dictionary")
	}
	if !Equal(tb, makeSample()) {
		t.Fatal("original mutated")
	}
}

func TestSelectRows(t *testing.T) {
	tb := makeSample()
	sel := tb.SelectRows([]int{3, 0, 0})
	if sel.NumRows() != 3 {
		t.Fatalf("rows = %d", sel.NumRows())
	}
	if sel.Float(0, 0) != 58 || sel.Float(1, 0) != 25 || sel.Float(2, 0) != 25 {
		t.Fatal("SelectRows order/repeat wrong")
	}
	// Dictionary must be preserved so codes stay compatible.
	if sel.Column(1).Label(sel.Cat(0, 1)) != "Matanzas" {
		t.Fatal("nominal label lost in selection")
	}
}

func TestSelectColumnsAndDrop(t *testing.T) {
	tb := makeSample()
	sub := tb.SelectColumns([]int{2, 0})
	if sub.NumCols() != 2 || sub.Column(0).Name != "income" || sub.Column(1).Name != "age" {
		t.Fatal("SelectColumns wrong")
	}
	dropped := tb.DropColumn("city")
	if dropped.NumCols() != 2 || dropped.ColumnIndex("city") != -1 {
		t.Fatal("DropColumn wrong")
	}
	if tb.NumCols() != 3 {
		t.Fatal("DropColumn mutated receiver")
	}
}

// rowKey is a row's canonical duplicate-detection key as a string.
func rowKey(tb *Table, r int) string { return string(tb.AppendRowKey(nil, r)) }

func TestRowKeyDuplicatesDetect(t *testing.T) {
	tb := makeSample()
	dup := tb.SelectRows([]int{0, 1, 2, 3, 0})
	keys := map[string]int{}
	for r := 0; r < dup.NumRows(); r++ {
		keys[rowKey(dup, r)]++
	}
	if len(keys) != 4 {
		t.Fatalf("distinct keys = %d, want 4", len(keys))
	}
}

func TestMissingCells(t *testing.T) {
	tb := makeSample()
	if tb.MissingCells() != 1 {
		t.Fatalf("MissingCells = %d, want 1", tb.MissingCells())
	}
	tb.SetMissing(0, 1)
	if tb.MissingCells() != 2 {
		t.Fatalf("MissingCells after SetMissing = %d, want 2", tb.MissingCells())
	}
}

func TestColumnIndicesByKind(t *testing.T) {
	tb := makeSample()
	num := tb.NumericColumnIndices()
	nom := tb.NominalColumnIndices()
	if len(num) != 2 || num[0] != 0 || num[1] != 2 {
		t.Fatalf("numeric indices = %v", num)
	}
	if len(nom) != 1 || nom[0] != 1 {
		t.Fatalf("nominal indices = %v", nom)
	}
}

func TestEqualDetectsDifferences(t *testing.T) {
	a, b := makeSample(), makeSample()
	if !Equal(a, b) {
		t.Fatal("identical tables unequal")
	}
	b.SetFloat(2, 0, 32)
	if Equal(a, b) {
		t.Fatal("value change undetected")
	}
}

func TestEqualTreatsNaNAsEqual(t *testing.T) {
	a, b := makeSample(), makeSample()
	if !a.IsMissing(1, 2) || !b.IsMissing(1, 2) {
		t.Fatal("fixture changed")
	}
	if !Equal(a, b) {
		t.Fatal("NaN cells should compare equal")
	}
}

func TestAppendEmptyRow(t *testing.T) {
	tb := makeSample()
	r := tb.AppendEmptyRow()
	if r != 4 {
		t.Fatalf("new row index = %d", r)
	}
	for j := 0; j < tb.NumCols(); j++ {
		if !tb.IsMissing(r, j) {
			t.Fatalf("column %d of empty row not missing", j)
		}
	}
}

func TestColumnCounts(t *testing.T) {
	tb := makeSample()
	counts := tb.Column(1).Counts()
	// Alicante x2, Berlin x1, Matanzas x1.
	if counts[0] != 2 || counts[1] != 1 || counts[2] != 1 {
		t.Fatalf("counts = %v", counts)
	}
}

func TestColumnCellString(t *testing.T) {
	tb := makeSample()
	if got := tb.Column(0).CellString(0); got != "25" {
		t.Fatalf("integer-valued cell = %q, want 25", got)
	}
	if got := tb.Column(2).CellString(1); got != "?" {
		t.Fatalf("missing cell = %q, want ?", got)
	}
	if got := tb.Column(1).CellString(3); got != "Matanzas" {
		t.Fatalf("nominal cell = %q", got)
	}
}

func TestCodeOfUnknown(t *testing.T) {
	c := NewNominalColumn("x", "a", "b")
	if c.CodeOf("z") != MissingCat {
		t.Fatal("unknown label should map to MissingCat")
	}
	if c.CodeOf("b") != 1 {
		t.Fatal("known label code wrong")
	}
}

func TestLabelOutOfRange(t *testing.T) {
	c := NewNominalColumn("x", "a")
	if c.Label(5) != "?" || c.Label(MissingCat) != "?" {
		t.Fatal("out-of-range label should render ?")
	}
}

func TestCodeOnNumericPanics(t *testing.T) {
	c := NewNumericColumn("n")
	defer func() {
		if recover() == nil {
			t.Fatal("Code on numeric column should panic")
		}
	}()
	c.Code("x")
}

// Property: SelectRows with the identity permutation is Equal to a clone.
func TestSelectRowsIdentityProperty(t *testing.T) {
	f := func(vals []float64) bool {
		tb := New("p")
		col := NewNumericColumn("v")
		for _, v := range vals {
			if math.IsInf(v, 0) {
				v = 0
			}
			col.AppendFloat(v)
		}
		tb.MustAddColumn(col)
		idx := make([]int, tb.NumRows())
		for i := range idx {
			idx[i] = i
		}
		return Equal(tb, tb.SelectRows(idx))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: the row key is injective over distinct nominal rows.
func TestRowKeyDistinguishesLabels(t *testing.T) {
	f := func(a, b string) bool {
		tb := New("p")
		col := NewNominalColumn("v")
		col.AppendLabel(a)
		col.AppendLabel(b)
		tb.MustAddColumn(col)
		if a == b {
			return rowKey(tb, 0) == rowKey(tb, 1)
		}
		return rowKey(tb, 0) != rowKey(tb, 1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestRowKeyTypedEncoding pins the regression fixes of the typed row key:
// a literal "?" label is not a missing cell, labels containing the old
// 0x1f separator cannot shift bytes between columns, and numeric cells
// still round to 9 significant digits.
func TestRowKeyTypedEncoding(t *testing.T) {
	t.Run("question mark label vs missing", func(t *testing.T) {
		tb := New("q")
		c := NewNominalColumn("c", "?")
		c.AppendCode(0)
		c.AppendMissing()
		tb.MustAddColumn(c)
		if rowKey(tb, 0) == rowKey(tb, 1) {
			t.Fatalf("%q-label row and missing-cell row share a key", "?")
		}
	})
	t.Run("separator byte in label", func(t *testing.T) {
		tb := New("sep")
		c1 := NewNominalColumn("c1", "a\x1fb", "a")
		c2 := NewNominalColumn("c2", "c", "b\x1fc")
		c1.AppendCode(0)
		c2.AppendCode(0) // ("a\x1fb", "c")
		c1.AppendCode(1)
		c2.AppendCode(1) // ("a", "b\x1fc")
		tb.MustAddColumn(c1)
		tb.MustAddColumn(c2)
		if rowKey(tb, 0) == rowKey(tb, 1) {
			t.Fatal("separator byte in a label shifted between columns")
		}
	})
	t.Run("numeric rounds to 9 significant digits", func(t *testing.T) {
		tb := New("num")
		c := NewNumericColumn("v")
		c.AppendFloat(1.0000000001) // equal at 9 significant digits
		c.AppendFloat(1.0000000002)
		c.AppendFloat(1.00000001) // differs at the 9th digit
		tb.MustAddColumn(c)
		if rowKey(tb, 0) != rowKey(tb, 1) {
			t.Fatal("float noise below 9 significant digits should key identically")
		}
		if rowKey(tb, 0) == rowKey(tb, 2) {
			t.Fatal("difference at 9 significant digits should key differently")
		}
	})
}
