package wire

import (
	"encoding/json"
	"strings"
	"testing"

	"entangled/internal/api"
	"entangled/internal/eq"
)

// TestOpTableCoversEveryKind: every request kind the protocol declares
// has exactly one descriptor. Envelopes (KindTenant, KindForward),
// replies and pushes are not operations.
func TestOpTableCoversEveryKind(t *testing.T) {
	byKind := map[Kind]int{}
	names := map[string]bool{}
	for _, op := range Ops {
		if names[op.Name] {
			t.Fatalf("two ops named %q", op.Name)
		}
		names[op.Name] = true
		if op.Kind != 0 {
			byKind[op.Kind]++
			if op.Name != op.Kind.String() {
				t.Fatalf("op %q carries kind %v", op.Name, op.Kind)
			}
		}
		if op.Method == "" && op.Kind == 0 {
			t.Fatalf("op %q is reachable over neither protocol", op.Name)
		}
		if (op.Session != nil) != (op.Place == PlaceSession || op.Place == PlaceOwner) {
			t.Fatalf("op %q: placement %d disagrees with its session field", op.Name, op.Place)
		}
		if strings.Contains(op.Route, "{id}") && op.Session == nil {
			t.Fatalf("op %q routes a session it cannot name", op.Name)
		}
	}
	for k := Kind(1); k < KindReply; k++ {
		if strings.HasPrefix(k.String(), "kind(") || k == KindTenant || k == KindForward {
			if byKind[k] != 0 {
				t.Fatalf("%v is not a request kind but has a descriptor", k)
			}
			continue
		}
		if byKind[k] != 1 {
			t.Fatalf("request kind %v has %d descriptors, want 1", k, byKind[k])
		}
	}
}

// TestOpRequestJSONMatchesAPI: a POST op's request struct is its HTTP
// body, so its JSON must be exactly the api request DTO's — the
// goldens in internal/api pin those bytes.
func TestOpRequestJSONMatchesAPI(t *testing.T) {
	q := eq.Query{ID: "q", Head: []eq.Atom{eq.NewAtom("R", eq.C("a"), eq.V("x"))}}
	pairs := []struct {
		op        *Op
		req, want any
	}{
		{OpCoordinate, &CoordinateReq{Requests: []api.Request{{ID: "r", Queries: []eq.Query{q}}}},
			api.CoordinateRequest{Requests: []api.Request{{ID: "r", Queries: []eq.Query{q}}}}},
		{OpCreateSession, &CreateSessionReq{ID: "s", ParkUnsafe: true}, api.CreateSessionRequest{ID: "s", ParkUnsafe: true}},
		{OpCreateSession, &CreateSessionReq{}, api.CreateSessionRequest{}},
		{OpJoin, &JoinReq{Session: "s", Query: q}, api.JoinRequest{Query: q}},
		{OpLeave, &LeaveReq{Session: "s", QueryID: "q"}, api.LeaveRequest{ID: "q"}},
	}
	posts := map[*Op]bool{}
	for _, p := range pairs {
		posts[p.op] = true
		got, err := json.Marshal(p.req)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(p.want)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("%s body %s, api DTO %s", p.op.Name, got, want)
		}
	}
	for _, op := range Ops {
		if op.Method == "POST" && !posts[op] {
			t.Fatalf("POST op %s has no JSON parity case", op.Name)
		}
	}
}
