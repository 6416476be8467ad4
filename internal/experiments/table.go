package experiments

import (
	"strings"
	"unicode/utf8"
)

// Table is one experiment report: the single model every table and
// figure is rendered from, as aligned text or as markdown.
type Table struct {
	Title   string
	Columns []Column
	// Rows hold preformatted cells, one per column.
	Rows [][]string
	// Notes are the lines printed under the table: summary statistics
	// and the definitions of its columns.
	Notes []string
}

// Column is one table column's header and alignment.
type Column struct {
	Name  string
	Align Align
}

// Align is a column's alignment.
type Align int

// The two alignments: labels read left, numbers right.
const (
	Left Align = iota
	Right
)

// Text renders t as aligned plain text: the title, the header, one line
// per row with every column as wide as its widest cell, then the notes.
func (t *Table) Text() string {
	lines := append([][]string{t.header()}, t.Rows...)
	widths := make([]int, len(t.Columns))
	for _, cells := range lines {
		for i, cell := range cells {
			widths[i] = max(widths[i], utf8.RuneCountInString(cell))
		}
	}
	var sb strings.Builder
	sb.WriteString(t.Title + "\n")
	for _, cells := range lines {
		var l strings.Builder
		for i, cell := range cells {
			if i > 0 {
				l.WriteString("  ")
			}
			pad := strings.Repeat(" ", widths[i]-utf8.RuneCountInString(cell))
			if t.Columns[i].Align == Right {
				l.WriteString(pad + cell)
			} else {
				l.WriteString(cell + pad)
			}
		}
		sb.WriteString(strings.TrimRight(l.String(), " ") + "\n")
	}
	for _, n := range t.Notes {
		sb.WriteString(n + "\n")
	}
	return sb.String()
}

// Markdown renders t as a GitHub-flavored markdown section: a ### title,
// the table with ---/---: alignment markers, and one paragraph per note.
func (t *Table) Markdown() string {
	var sb strings.Builder
	sb.WriteString("### " + t.Title + "\n\n")
	row := func(cells []string) {
		sb.WriteString("| " + strings.Join(cells, " | ") + " |\n")
	}
	rule := make([]string, len(t.Columns))
	for i, c := range t.Columns {
		rule[i] = "---"
		if c.Align == Right {
			rule[i] = "---:"
		}
	}
	row(t.header())
	sb.WriteString("|" + strings.Join(rule, "|") + "|\n")
	for _, r := range t.Rows {
		row(r)
	}
	sb.WriteString("\n")
	for _, n := range t.Notes {
		sb.WriteString(n + "\n\n")
	}
	return sb.String()
}

func (t *Table) header() []string {
	names := make([]string, len(t.Columns))
	for i, c := range t.Columns {
		names[i] = c.Name
	}
	return names
}
