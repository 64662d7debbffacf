package table

import (
	"fmt"
	"io"
	"strings"
)

// ReadHTMLTable extracts the first <table> element from an HTML document
// into a typed Table. The parser is a small, tolerant hand-rolled tag
// scanner (stdlib-only, no golang.org/x/net): it understands <table>,
// <tr>, <th>, <td>, ignores attributes, strips nested inline markup inside
// cells, and decodes the common entities. Header cells (<th>) in the first
// row become column names; without any <th> the first row is still treated
// as the header, matching how scraped government tables behave in practice.
func ReadHTMLTable(r io.Reader, name string) (*Table, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("table: reading html: %w", err)
	}
	rows, hadTH, err := parseFirstHTMLTable(string(raw))
	if err != nil {
		return nil, err
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("table: html input has no table rows")
	}

	header := rows[0]
	data := rows[1:]
	_ = hadTH // first row is the header either way; hadTH kept for clarity

	width := len(header)
	for _, rw := range data {
		if len(rw) > width {
			width = len(rw)
		}
	}
	for len(header) < width {
		header = append(header, "")
	}

	cells := make([][]string, width)
	for j := 0; j < width; j++ {
		cells[j] = make([]string, len(data))
		for i, rw := range data {
			if j < len(rw) {
				cells[j][i] = rw[j]
			}
		}
	}
	if name == "" {
		name = "html"
	}
	return fromRawColumns(name, dedupeNames(header), cells, 0.95)
}

// parseFirstHTMLTable scans markup and returns the cell text of the first
// table, row-major, plus whether any <th> was seen.
func parseFirstHTMLTable(doc string) ([][]string, bool, error) {
	lower := asciiLower(doc)
	start := strings.Index(lower, "<table")
	if start < 0 {
		return nil, false, fmt.Errorf("table: html input has no <table>")
	}
	end := strings.Index(lower[start:], "</table>")
	if end < 0 {
		end = len(doc) - start
	}
	body := doc[start : start+end]

	var (
		rows    [][]string
		current []string
		cell    strings.Builder
		inCell  bool
		hadTH   bool
	)
	flushCell := func() {
		if inCell {
			current = append(current, cleanHTMLText(cell.String()))
			cell.Reset()
			inCell = false
		}
	}
	flushRow := func() {
		flushCell()
		if current != nil {
			rows = append(rows, current)
			current = nil
		}
	}

	i := 0
	for i < len(body) {
		lt := strings.IndexByte(body[i:], '<')
		if lt < 0 {
			if inCell {
				cell.WriteString(body[i:])
			}
			break
		}
		if inCell {
			cell.WriteString(body[i : i+lt])
		}
		i += lt
		gt := strings.IndexByte(body[i:], '>')
		if gt < 0 {
			break
		}
		tag := body[i+1 : i+gt]
		i += gt + 1

		tagName := strings.ToLower(strings.TrimSpace(tag))
		closing := strings.HasPrefix(tagName, "/")
		tagName = strings.TrimPrefix(tagName, "/")
		if sp := strings.IndexAny(tagName, " \t\r\n/"); sp >= 0 {
			tagName = tagName[:sp]
		}

		switch tagName {
		case "tr":
			if closing {
				flushRow()
			} else {
				flushRow() // tolerate unclosed previous row
				current = []string{}
			}
		case "td", "th":
			if closing {
				flushCell()
			} else {
				flushCell() // tolerate unclosed previous cell
				inCell = true
				if tagName == "th" {
					hadTH = true
				}
				if current == nil {
					current = []string{}
				}
			}
		case "br":
			if inCell {
				cell.WriteByte(' ')
			}
		default:
			// Inline markup inside cells (a, b, span, ...) is ignored.
		}
	}
	flushRow()

	// Drop rows that are entirely empty (spacer rows).
	out := rows[:0]
	for _, rw := range rows {
		empty := true
		for _, c := range rw {
			if c != "" {
				empty = false
				break
			}
		}
		if !empty {
			out = append(out, rw)
		}
	}
	return out, hadTH, nil
}

// asciiLower lowercases the ASCII letters of s and leaves every other byte
// alone, so offsets found in the result are valid in s. (strings.ToLower
// turns each invalid UTF-8 byte into the 3-byte U+FFFD, shifting them.)
func asciiLower(s string) string {
	b := []byte(s)
	for i, c := range b {
		if 'A' <= c && c <= 'Z' {
			b[i] = c + 'a' - 'A'
		}
	}
	return string(b)
}

// cleanHTMLText collapses whitespace and decodes the entities that matter
// for data cells.
func cleanHTMLText(s string) string {
	replacements := []struct{ from, to string }{
		{"&nbsp;", " "}, {"&amp;", "&"}, {"&lt;", "<"}, {"&gt;", ">"},
		{"&quot;", `"`}, {"&#39;", "'"}, {"&apos;", "'"},
	}
	for _, r := range replacements {
		s = strings.ReplaceAll(s, r.from, r.to)
	}
	return strings.Join(strings.Fields(s), " ")
}
