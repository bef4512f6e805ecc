package client

import (
	"context"
	"testing"

	"entangled/internal/wire"
)

// TestHTTPOnlyOpsFailAlikeOffHTTP: every HTTP-only operation in the
// table fails the same way over tcp:// and cluster:// — one error, from
// one place, before anything is dialed.
func TestHTTPOnlyOpsFailAlikeOffHTTP(t *testing.T) {
	ctx := context.Background()
	var n int
	for _, op := range wire.Ops {
		if op.Kind != 0 {
			continue
		}
		n++
		want := "client: the " + op.Name + " endpoint is served over HTTP only"
		for _, base := range []string{"tcp://127.0.0.1:1", "cluster://127.0.0.1:1"} {
			c, err := New(base, Options{})
			if err != nil {
				t.Fatal(err)
			}
			err = c.t.call(ctx, op, op.NewReq(), op.NewRep())
			c.Close()
			if err == nil || err.Error() != want {
				t.Fatalf("%s over %s: %v, want %q", op.Name, base, err, want)
			}
		}
	}
	if n != 3 {
		t.Fatalf("table has %d HTTP-only ops, want recovery, metrics and tenants", n)
	}
}
