package table

import (
	"bytes"
	"math"
	"testing"
)

// FuzzReadHTMLTable throws arbitrary markup at the HTML table reader: it
// must never panic, and a table it accepts must have columns of equal
// length.
func FuzzReadHTMLTable(f *testing.F) {
	seeds := []string{
		"",
		"<p>no table</p>",
		"<table><tr><th>a</th><th>b</th></tr><tr><td>1</td><td>x</td></tr></table>",
		"<TABLE><tr><th>Name<th>Len\n<tr><td><a href=\"#\">R&amp;D </a><td>5\n<tr><td>Ops<td>3</table>",
		"<table><tr><td>1<td>2<td>3<tr><td>4</table>",   // ragged rows
		"<table><tr><th>a</th></tr><tr><td>1</td></tr>", // unclosed table
		"<table><tr><td>a<br>b</td></tr><tr><td>&nbsp;</td></tr><tr><td>",
		"\xff\xff\xff\xff\xff<table><tr><th>a</th><th>b</th></tr><tr><td>1</td><td>2</td></tr></table>",
		"\xc3<TaBlE><tr><th>\xff</th></tr><tr><td>\xe2\x82</td></tr></tAbLe>",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tb, err := ReadHTMLTable(bytes.NewReader(data), "fuzz")
		if err != nil {
			return
		}
		rows := tb.NumRows()
		for _, col := range tb.Columns() {
			if col.Len() != rows {
				t.Fatalf("column %q has %d cells, table has %d rows", col.Name, col.Len(), rows)
			}
		}
	})
}

// FuzzReadCSV throws arbitrary bytes at the CSV ingester and checks the
// structural invariants every downstream consumer (dq, mining, olap)
// relies on: rectangular columns, unique names, missing-mask consistency,
// and numeric columns that never hold an unmasked NaN surprise.
func FuzzReadCSV(f *testing.F) {
	seeds := []struct {
		data      string
		hasHeader bool
	}{
		{"", true},
		{"a,b\n1,x\n2,y\n", true},
		{"1,2\n3,4\n", false},
		{"a,a,a\n1,2,3\n", true},      // duplicate headers
		{"a,b\n1\n1,2,3\n", true},     // ragged rows
		{"a,b\n?,NA\nnull,-\n", true}, // missing tokens
		{"a\n1,234\n56.7%\n", true},   // thousands + percent spellings
		{"a;b\n1;2\n", true},          // wrong separator: one fat column
		{"\"q\"\"uote\",b\n\"x,y\",2\n", true},
		{"a,b\n\"unclosed,2\n", true},
		{"\xff\xfe,b\n1,2\n", true}, // invalid utf-8
	}
	for _, s := range seeds {
		f.Add([]byte(s.data), s.hasHeader)
	}
	f.Fuzz(func(t *testing.T, data []byte, hasHeader bool) {
		tb, err := ReadCSV(bytes.NewReader(data), ReadCSVOptions{HasHeader: hasHeader, Name: "fuzz"})
		if err != nil {
			return // rejecting malformed input is fine; crashing is not
		}
		rows := tb.NumRows()
		seen := map[string]bool{}
		for _, col := range tb.Columns() {
			if col.Len() != rows {
				t.Fatalf("column %q has %d cells, table has %d rows", col.Name, col.Len(), rows)
			}
			if seen[col.Name] {
				t.Fatalf("duplicate column name %q survived dedupe", col.Name)
			}
			seen[col.Name] = true
			for r := 0; r < rows; r++ {
				if col.Kind == Numeric {
					if math.IsNaN(col.Nums[r]) != col.IsMissing(r) {
						t.Fatalf("column %q row %d: NaN/missing mask mismatch", col.Name, r)
					}
				}
				// CellString must never panic, missing or not.
				_ = col.CellString(r)
			}
		}
		// A parsed table must re-serialize; WriteCSV shares the row walk
		// with every exporter.
		var buf bytes.Buffer
		if err := WriteCSV(&buf, tb); err != nil {
			t.Fatalf("writing parsed table: %v", err)
		}
	})
}
