package table

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestReadCSVBasic(t *testing.T) {
	in := "name,age,score\nana,34,8.5\nbob,29,7.25\ncarla,41,9\n"
	tb, err := ReadCSV(strings.NewReader(in), ReadCSVOptions{HasHeader: true})
	if err != nil {
		t.Fatal(err)
	}
	if tb.NumRows() != 3 || tb.NumCols() != 3 {
		t.Fatalf("shape = %dx%d", tb.NumRows(), tb.NumCols())
	}
	if tb.Column(0).Kind != Nominal {
		t.Fatal("name should be nominal")
	}
	if tb.Column(1).Kind != Numeric || tb.Column(2).Kind != Numeric {
		t.Fatal("age/score should be numeric")
	}
	if tb.Float(1, 1) != 29 {
		t.Fatalf("age[1] = %v", tb.Float(1, 1))
	}
}

func TestReadCSVMissingTokens(t *testing.T) {
	in := "a,b\n1,x\n?,y\nNA,z\n4,null\n"
	tb, err := ReadCSV(strings.NewReader(in), ReadCSVOptions{HasHeader: true})
	if err != nil {
		t.Fatal(err)
	}
	if tb.Column(0).Kind != Numeric {
		t.Fatal("column a should be numeric despite ?/NA")
	}
	if !tb.IsMissing(1, 0) || !tb.IsMissing(2, 0) {
		t.Fatal("?/NA should be missing")
	}
	if !tb.IsMissing(3, 1) {
		t.Fatal("null should be missing in nominal column")
	}
}

func TestReadCSVNumericThreshold(t *testing.T) {
	// Half numbers, half words: should vote nominal at default threshold.
	in := "mix\n1\ntwo\n3\nfour\n"
	tb, err := ReadCSV(strings.NewReader(in), ReadCSVOptions{HasHeader: true})
	if err != nil {
		t.Fatal(err)
	}
	if tb.Column(0).Kind != Nominal {
		t.Fatal("mixed column should be nominal")
	}
}

func TestReadCSVThousandsAndPercent(t *testing.T) {
	in := "pop,rate\n\"1,234,567\",45%\n\"2,000\",12.5%\n"
	tb, err := ReadCSV(strings.NewReader(in), ReadCSVOptions{HasHeader: true})
	if err != nil {
		t.Fatal(err)
	}
	if tb.Float(0, 0) != 1234567 {
		t.Fatalf("thousands parse = %v", tb.Float(0, 0))
	}
	if math.Abs(tb.Float(0, 1)-0.45) > 1e-12 {
		t.Fatalf("percent parse = %v", tb.Float(0, 1))
	}
}

func TestReadCSVNoHeader(t *testing.T) {
	tb, err := ReadCSV(strings.NewReader("1,a\n2,b\n"), ReadCSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if tb.Column(0).Name != "c0" || tb.Column(1).Name != "c1" {
		t.Fatalf("names = %v", tb.ColumnNames())
	}
}

func TestReadCSVDuplicateHeaders(t *testing.T) {
	tb, err := ReadCSV(strings.NewReader("x,x,x\n1,2,3\n"), ReadCSVOptions{HasHeader: true})
	if err != nil {
		t.Fatal(err)
	}
	names := tb.ColumnNames()
	if names[0] != "x" || names[1] != "x_2" || names[2] != "x_3" {
		t.Fatalf("deduped names = %v", names)
	}
}

func TestReadCSVRaggedRows(t *testing.T) {
	tb, err := ReadCSV(strings.NewReader("a,b,c\n1,2\n3,4,5\n"), ReadCSVOptions{HasHeader: true})
	if err != nil {
		t.Fatal(err)
	}
	if !tb.IsMissing(0, 2) {
		t.Fatal("short row should pad missing")
	}
	if tb.Float(1, 2) != 5 {
		t.Fatal("full row misread")
	}
}

func TestReadCSVEmpty(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader(""), ReadCSVOptions{}); err == nil {
		t.Fatal("empty input should error")
	}
}

func TestWriteCSVRoundtrip(t *testing.T) {
	tb := makeSample()
	var buf bytes.Buffer
	if err := WriteCSV(&buf, tb); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf, ReadCSVOptions{HasHeader: true, Name: "people"})
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(tb, back) {
		t.Fatal("CSV roundtrip not equal")
	}
}

func TestReadXMLBasic(t *testing.T) {
	in := `<?xml version="1.0"?>
<rows>
  <row><name>ana</name><age>34</age></row>
  <row><name>bob</name><age>29</age><city>Berlin</city></row>
</rows>`
	tb, err := ReadXML(strings.NewReader(in), "t")
	if err != nil {
		t.Fatal(err)
	}
	if tb.NumRows() != 2 {
		t.Fatalf("rows = %d", tb.NumRows())
	}
	// Fields sorted: age, city, name.
	if tb.ColumnIndex("age") < 0 || tb.ColumnIndex("city") < 0 || tb.ColumnIndex("name") < 0 {
		t.Fatalf("columns = %v", tb.ColumnNames())
	}
	if tb.ColumnByName("age").Kind != Numeric {
		t.Fatal("age should be numeric")
	}
	if !tb.IsMissing(0, tb.ColumnIndex("city")) {
		t.Fatal("row 0 city should be missing")
	}
}

func TestReadXMLNested(t *testing.T) {
	in := `<data>
  <rec><id>1</id><addr><city>Alicante</city><zip>03001</zip></addr></rec>
  <rec><id>2</id><addr><city>Matanzas</city><zip>40100</zip></addr></rec>
</data>`
	tb, err := ReadXML(strings.NewReader(in), "t")
	if err != nil {
		t.Fatal(err)
	}
	if tb.ColumnIndex("addr.city") < 0 {
		t.Fatalf("nested column missing: %v", tb.ColumnNames())
	}
	c := tb.ColumnByName("addr.city")
	if c.Label(c.Cats[1]) != "Matanzas" {
		t.Fatal("nested value wrong")
	}
}

func TestReadXMLNoRecords(t *testing.T) {
	if _, err := ReadXML(strings.NewReader("<empty></empty>"), "t"); err == nil {
		t.Fatal("record-less XML should error")
	}
}

func TestReadHTMLTableBasic(t *testing.T) {
	in := `<html><body><h1>Budget</h1>
<table class="data">
 <tr><th>Municipality</th><th>Budget</th></tr>
 <tr><td>Alicante</td><td>1200</td></tr>
 <tr><td>Matanzas</td><td>900</td></tr>
</table></body></html>`
	tb, err := ReadHTMLTable(strings.NewReader(in), "t")
	if err != nil {
		t.Fatal(err)
	}
	if tb.NumRows() != 2 || tb.NumCols() != 2 {
		t.Fatalf("shape = %dx%d", tb.NumRows(), tb.NumCols())
	}
	if tb.Column(1).Kind != Numeric || tb.Float(0, 1) != 1200 {
		t.Fatal("budget column wrong")
	}
}

func TestReadHTMLTableMessyMarkup(t *testing.T) {
	// Unclosed cells/rows, inline markup, entities.
	in := `<TABLE><tr><th>Name<th>Len
<tr><td><a href="#">R&amp;D </a><td>5
<tr><td>Ops<td>3</table>`
	tb, err := ReadHTMLTable(strings.NewReader(in), "t")
	if err != nil {
		t.Fatal(err)
	}
	if tb.NumRows() != 2 {
		t.Fatalf("rows = %d, want 2", tb.NumRows())
	}
	c := tb.Column(0)
	if c.Label(c.Cats[0]) != "R&D" {
		t.Fatalf("entity decode = %q", c.Label(c.Cats[0]))
	}
}

func TestReadHTMLNoTable(t *testing.T) {
	if _, err := ReadHTMLTable(strings.NewReader("<p>nothing</p>"), "t"); err == nil {
		t.Fatal("table-less HTML should error")
	}
}

func TestReadHTMLFirstTableOnly(t *testing.T) {
	in := `<table><tr><th>a</th></tr><tr><td>1</td></tr></table>
<table><tr><th>b</th></tr><tr><td>2</td></tr></table>`
	tb, err := ReadHTMLTable(strings.NewReader(in), "t")
	if err != nil {
		t.Fatal(err)
	}
	if tb.ColumnIndex("a") < 0 || tb.ColumnIndex("b") >= 0 {
		t.Fatalf("should read first table only, got %v", tb.ColumnNames())
	}
}

// TestReadHTMLInvalidUTF8 is a regression test: invalid UTF-8 before the
// table used to shift the tag offsets and panic with slice bounds out of
// range.
func TestReadHTMLInvalidUTF8(t *testing.T) {
	in := "\xff\xff\xff\xff\xff<table><tr><th>a</th><th>b</th></tr><tr><td>1</td><td>2</td></tr></table>"
	tb, err := ReadHTMLTable(strings.NewReader(in), "t")
	if err != nil {
		t.Fatal(err)
	}
	if tb.NumRows() != 1 || tb.ColumnIndex("a") != 0 || tb.ColumnIndex("b") != 1 || tb.Float(0, 1) != 2 {
		t.Fatalf("got %v with %d rows", tb.ColumnNames(), tb.NumRows())
	}
}

func TestIsMissingToken(t *testing.T) {
	for _, s := range []string{"", "?", "NA", " null ", "-"} {
		if !IsMissingToken(s) {
			t.Errorf("IsMissingToken(%q) = false", s)
		}
	}
	for _, s := range []string{"0", "x", "N A"} {
		if IsMissingToken(s) {
			t.Errorf("IsMissingToken(%q) = true", s)
		}
	}
}
