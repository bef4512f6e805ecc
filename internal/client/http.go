package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"entangled/internal/api"
	"entangled/internal/wire"
)

// httpTransport speaks the HTTP/JSON protocol.
type httpTransport struct {
	base   string
	hc     *http.Client
	tenant string
}

// call runs one round trip. The op maps onto its route — the session
// name fills the {id} segment, the flag becomes ?trace=1 — and a POST
// sends the request as its JSON body; a 2xx body decodes into rep
// (when non-nil), and every non-2xx becomes a typed *Error from the
// wire envelope.
func (t *httpTransport) call(ctx context.Context, op *wire.Op, req, rep any) error {
	if op.Method == "" {
		return fmt.Errorf("client: the %s operation requires the binary protocol", op.Name)
	}
	method, path := op.Method, op.Route
	if op.Session != nil {
		path = strings.Replace(path, "{id}", url.PathEscape(*op.Session(req)), 1)
	}
	if op.Flag != nil && *op.Flag(req) {
		path += "?trace=1"
	}
	var body io.Reader
	if method == http.MethodPost {
		buf, err := json.Marshal(req)
		if err != nil {
			return fmt.Errorf("client: encoding request: %w", err)
		}
		body = bytes.NewReader(buf)
	}
	hreq, err := http.NewRequestWithContext(ctx, method, t.base+path, body)
	if err != nil {
		return fmt.Errorf("client: building request: %w", err)
	}
	if body != nil {
		hreq.Header.Set("Content-Type", "application/json")
	}
	if t.tenant != "" {
		hreq.Header.Set(api.TenantHeader, t.tenant)
	}
	resp, err := t.hc.Do(hreq)
	if err != nil {
		return fmt.Errorf("client: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		var env api.ErrorEnvelope
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil || env.Error == nil {
			return &Error{Status: resp.StatusCode, Code: api.CodeInternal,
				Message: fmt.Sprintf("%s %s: HTTP %d with unreadable error body", method, path, resp.StatusCode)}
		}
		retryAfter := time.Duration(env.Error.RetryAfterMS) * time.Millisecond
		if retryAfter == 0 {
			// Fall back to the standard header (whole seconds), which
			// the server also sets — a proxy may have stripped or
			// rewritten the body.
			if s, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && s > 0 {
				retryAfter = time.Duration(s) * time.Second
			}
		}
		return &Error{Status: resp.StatusCode, Code: env.Error.Code, Message: env.Error.Message,
			Owner: env.Error.Owner, RetryAfter: retryAfter}
	}
	if rep == nil {
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(rep); err != nil {
		return fmt.Errorf("client: decoding %s %s response: %w", method, path, err)
	}
	return nil
}

func (t *httpTransport) subscribe(context.Context, string, func(Notification)) (func(), error) {
	return nil, fmt.Errorf("client: push subscriptions require the binary protocol (tcp:// base URL); poll Status over HTTP")
}

func (t *httpTransport) close() error { return nil }
