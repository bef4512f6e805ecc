package db

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"entangled/internal/eq"
)

// snapshotManifest describes an instance saved to disk: one CSV file
// per relation plus this JSON manifest carrying attribute names and
// index definitions (CSV alone cannot).
type snapshotManifest struct {
	Relations []relationManifest `json:"relations"`
}

type relationManifest struct {
	Name    string   `json:"name"`
	Attrs   []string `json:"attrs"`
	Indexes []int    `json:"indexes"`
	File    string   `json:"file"`
}

// Save writes the instance to dir (created if missing): manifest.json
// plus <relation>.csv per relation. Existing files are overwritten.
func (in *Instance) Save(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var man snapshotManifest
	names := in.RelationNames()
	for _, name := range names {
		r, _ := in.Relation(name)
		file := name + ".csv"
		f, err := os.Create(filepath.Join(dir, file))
		if err != nil {
			return err
		}
		if err := r.DumpCSV(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		var idx []int
		r.mu.RLock()
		for col := range r.indexes {
			idx = append(idx, col)
		}
		r.mu.RUnlock()
		sort.Ints(idx)
		man.Relations = append(man.Relations, relationManifest{
			Name:    name,
			Attrs:   append([]string(nil), r.Attrs...),
			Indexes: idx,
			File:    file,
		})
	}
	data, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "manifest.json"), data, 0o644)
}

// Load reads an instance previously written by Save. Every value loads
// back byte for byte (unlike LoadCSV, nothing is trimmed), and every
// record must have the manifest's arity: only an empty relation file
// yields an empty relation, and any other parse or field-count error is
// returned. It builds the instance through the ordinary
// CreateRelation/BuildIndex surface, so the schema-version counters the
// compiled-plan cache validates against are advanced exactly as for a
// hand-built instance.
func Load(dir string) (*Instance, error) {
	data, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		return nil, err
	}
	var man snapshotManifest
	if err := json.Unmarshal(data, &man); err != nil {
		return nil, fmt.Errorf("db: bad manifest: %w", err)
	}
	in := NewInstance()
	for _, rm := range man.Relations {
		if err := loadRelation(in, dir, rm); err != nil {
			return nil, err
		}
	}
	return in, nil
}

// loadRelation reads one relation file written by Save into in.
func loadRelation(in *Instance, dir string, rm relationManifest) error {
	if len(rm.Attrs) == 0 {
		return fmt.Errorf("db: %s: manifest declares no attributes", rm.Name)
	}
	data, err := os.ReadFile(filepath.Join(dir, rm.File))
	if err != nil {
		return err
	}
	cr := csv.NewReader(bytes.NewReader(data))
	cr.FieldsPerRecord = len(rm.Attrs)
	rows, err := cr.ReadAll()
	if err != nil {
		return fmt.Errorf("db: %s: %w", rm.Name, err)
	}
	if len(rows) == 0 && len(data) > 0 {
		return fmt.Errorf("db: %s: non-empty file holds no records", rm.Name)
	}
	rel := in.CreateRelation(rm.Name, rm.Attrs...)
	vals := make([]eq.Value, len(rm.Attrs))
	for _, row := range rows {
		for i, c := range row {
			vals[i] = eq.Value(c)
		}
		rel.Insert(vals...)
	}
	for _, col := range rm.Indexes {
		if col < 0 || col >= rel.Arity() {
			return fmt.Errorf("db: %s: index column %d out of range", rm.Name, col)
		}
		rel.BuildIndex(col)
	}
	return nil
}
