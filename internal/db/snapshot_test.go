package db

import (
	"os"
	"path/filepath"
	"testing"

	"entangled/internal/eq"
)

// awkwardInstance holds values a CSV snapshot must carry byte for byte:
// surrounding spaces, empty strings (including a unary tuple whose one
// value is empty), separators, quotes, newlines, a lone carriage return
// and bytes that are not UTF-8.
func awkwardInstance() *Instance {
	in := NewInstance()
	p := in.CreateRelation("P", "a", "b")
	p.Insert(" padded", "trailing ")
	p.Insert("", "")
	p.Insert("comma,quote\"", "new\nline")
	p.Insert("lone\r", "\xff\xfe")
	p.BuildIndex(0)
	u := in.CreateRelation("U", "a")
	u.Insert("")
	u.Insert(" x ")
	u.Insert("")
	return in
}

func TestSaveLoadRoundTrip(t *testing.T) {
	for name, in := range map[string]*Instance{"flights": flightsInstance(), "awkward": awkwardInstance()} {
		t.Run(name, func(t *testing.T) { checkSaveLoadRoundTrip(t, in) })
	}
	// A value CSV cannot carry (csv.Reader folds \r\n to \n) fails the
	// save instead of loading back changed.
	in := NewInstance()
	in.CreateRelation("R", "a").Insert("cr\r\nlf")
	if err := in.Save(t.TempDir()); err == nil {
		t.Fatal("saving a value with \\r\\n must fail")
	}
}

func checkSaveLoadRoundTrip(t *testing.T, in *Instance) {
	dir := t.TempDir()
	if err := in.Save(dir); err != nil {
		t.Fatal(err)
	}
	back, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range in.RelationNames() {
		orig, _ := in.Relation(name)
		got, ok := back.Relation(name)
		if !ok {
			t.Fatalf("relation %s missing after load", name)
		}
		if got.Len() != orig.Len() || got.Arity() != orig.Arity() {
			t.Fatalf("%s shape: %dx%d vs %dx%d", name, got.Len(), got.Arity(), orig.Len(), orig.Arity())
		}
		for i := 0; i < orig.Len(); i++ {
			for j := range orig.Tuple(i) {
				if got.Tuple(i)[j] != orig.Tuple(i)[j] {
					t.Fatalf("%s tuple %d differs: %q vs %q", name, i, got.Tuple(i), orig.Tuple(i))
				}
			}
		}
		// Attribute names survive.
		for j, a := range orig.Attrs {
			if got.Attrs[j] != a {
				t.Fatalf("%s attrs: %v vs %v", name, got.Attrs, orig.Attrs)
			}
		}
	}
	// Queries behave identically on the reloaded instance: every
	// relation's first tuple has the same number of matches.
	for _, name := range in.RelationNames() {
		orig, _ := in.Relation(name)
		if orig.Len() == 0 {
			continue
		}
		var args []eq.Term
		for _, v := range orig.Tuple(0) {
			args = append(args, eq.C(v))
		}
		body := []eq.Atom{eq.NewAtom(name, args...)}
		a, _ := in.SolveAll(body, 0)
		b, _ := back.SolveAll(body, 0)
		if len(a) != len(b) {
			t.Fatalf("%s: answers differ: %d vs %d", name, len(a), len(b))
		}
	}
}

func TestSaveLoadPreservesIndexes(t *testing.T) {
	dir := t.TempDir()
	in := NewInstance()
	r := in.CreateRelation("R", "a", "b")
	r.Insert("1", "x")
	r.BuildIndex(1)
	if err := in.Save(dir); err != nil {
		t.Fatal(err)
	}
	back, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	rel, _ := back.Relation("R")
	if _, ok := rel.indexes[1]; !ok {
		t.Fatal("index on column 1 must survive the round trip")
	}
	if _, ok := rel.indexes[0]; ok {
		t.Fatal("only the manifest's indexes are built")
	}
	bnd, ok, err := back.Solve([]eq.Atom{eq.NewAtom("R", eq.V("k"), eq.C("x"))})
	if err != nil || !ok || bnd["k"] != "1" {
		t.Fatalf("solve on reloaded index: %v %v %v", bnd, ok, err)
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("missing dir must fail")
	}
	const manifest = `{"relations":[{"name":"R","attrs":["a","b"],"file":"R.csv"}]}`
	for _, tc := range []struct {
		name     string
		manifest string
		csv      string
	}{
		{"bad manifest", "{", ""},
		{"missing relation file", manifest, ""},
		{"short record", manifest, "1,x\n2\n"},
		{"long record", manifest, "1,x,y\n"},
		{"bare quote", manifest, "1,\"x\n"},
		{"blank lines only", manifest, "\n\n"},
	} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "manifest.json"), []byte(tc.manifest), 0o644); err != nil {
			t.Fatal(err)
		}
		if tc.csv != "" {
			if err := os.WriteFile(filepath.Join(dir, "R.csv"), []byte(tc.csv), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if in, err := Load(dir); err == nil {
			t.Fatalf("%s: Load must fail, loaded %v", tc.name, in.Schema())
		}
	}
}

func TestSaveEmptyRelation(t *testing.T) {
	dir := t.TempDir()
	in := NewInstance()
	in.CreateRelation("Empty", "a", "b")
	if err := in.Save(dir); err != nil {
		t.Fatal(err)
	}
	back, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	rel, ok := back.Relation("Empty")
	if !ok || rel.Len() != 0 || rel.Arity() != 2 {
		t.Fatalf("empty relation round trip: %v", rel)
	}
}
