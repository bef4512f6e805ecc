package db

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"

	"entangled/internal/eq"
)

// LoadCSV reads a headerless CSV stream into a new relation registered
// under name; the arity is taken from the first record and an index is
// built on every column. cmd/coordctl uses it to load tables from disk.
func (in *Instance) LoadCSV(name string, r io.Reader) (*Relation, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("db: %s: %w", name, err)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("db: %s: empty CSV input", name)
	}
	arity := len(rows[0])
	attrs := make([]string, arity)
	for i := range attrs {
		attrs[i] = fmt.Sprintf("c%d", i)
	}
	rel := in.CreateRelation(name, attrs...)
	for ln, row := range rows {
		if len(row) != arity {
			return nil, fmt.Errorf("db: %s: record %d has %d fields, expected %d", name, ln+1, len(row), arity)
		}
		vals := make([]eq.Value, arity)
		for i, c := range row {
			vals[i] = eq.Value(strings.TrimSpace(c))
		}
		rel.Insert(vals...)
	}
	for c := 0; c < arity; c++ {
		rel.BuildIndex(c)
	}
	return rel, nil
}

// DumpCSV writes the relation's tuples as headerless CSV in insertion
// order, such that a csv.Reader reads back exactly the stored values. A
// value containing "\r\n" is an error: csv.Reader would read it back
// as "\n".
func (r *Relation) DumpCSV(w io.Writer) error {
	r.mu.RLock()
	defer r.mu.RUnlock()
	cw := csv.NewWriter(w)
	record := make([]string, r.Arity())
	for _, t := range r.tuples {
		for i, v := range t {
			if strings.Contains(string(v), "\r\n") {
				return fmt.Errorf("db: %s: value %q contains \\r\\n, which CSV cannot carry", r.Name, v)
			}
			record[i] = string(v)
		}
		if len(record) == 1 && record[0] == "" {
			// csv.Writer renders a lone empty field as a blank line,
			// which csv.Reader skips; quote it so the tuple survives.
			cw.Flush()
			if _, err := io.WriteString(w, "\"\"\n"); err != nil {
				return err
			}
			continue
		}
		if err := cw.Write(record); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// DeleteWhere removes every tuple matching the (column -> constant)
// filter and rebuilds the relation's indexes; it returns the number of
// tuples removed. An empty filter clears the relation.
func (r *Relation) DeleteWhere(where map[int]eq.Value) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	kept := r.tuples[:0]
	removed := 0
	for _, t := range r.tuples {
		match := true
		for c, v := range where {
			if t[c] != v {
				match = false
				break
			}
		}
		if match {
			removed++
		} else {
			kept = append(kept, t)
		}
	}
	r.tuples = kept
	for col := range r.indexes {
		r.buildIndexLocked(col)
	}
	return removed
}
