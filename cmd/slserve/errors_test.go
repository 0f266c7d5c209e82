package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// errShape is the one error contract: every non-200 from every endpoint.
type errShape struct {
	Error             *string `json:"error"`
	Retryable         *bool   `json:"retryable"`
	RetryAfterSeconds *int64  `json:"retry_after_seconds"`
}

// assertErrShape fails unless rec carries the uniform JSON error body with
// all three fields present and the expected retryable classification.
func assertErrShape(t *testing.T, rec *httptest.ResponseRecorder, retryable bool) {
	t.Helper()
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("error response Content-Type = %q, want application/json (body %q)", ct, rec.Body.String())
	}
	var e errShape
	dec := json.NewDecoder(strings.NewReader(rec.Body.String()))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&e); err != nil {
		t.Fatalf("error body %q does not decode as {error, retryable, retry_after_seconds}: %v", rec.Body.String(), err)
	}
	if e.Error == nil || *e.Error == "" {
		t.Fatalf("error body %q: missing or empty 'error'", rec.Body.String())
	}
	if e.Retryable == nil {
		t.Fatalf("error body %q: missing 'retryable'", rec.Body.String())
	}
	if e.RetryAfterSeconds == nil {
		t.Fatalf("error body %q: missing 'retry_after_seconds'", rec.Body.String())
	}
	if *e.Retryable != retryable {
		t.Fatalf("retryable = %v, want %v (body %q)", *e.Retryable, retryable, rec.Body.String())
	}
	if *e.RetryAfterSeconds < 0 {
		t.Fatalf("retry_after_seconds = %d, want >= 0", *e.RetryAfterSeconds)
	}
	if *e.RetryAfterSeconds > 0 && rec.Header().Get("Retry-After") == "" {
		t.Fatalf("retry_after_seconds %d without a Retry-After header", *e.RetryAfterSeconds)
	}
}

// TestErrorShapeUniform drives every endpoint's non-200 classes — wrong
// method, bad parameter, fenced generation, terminal budget — and asserts
// each answers the one shared shape. A new endpoint that hand-rolls its
// errors breaks here, not in a client.
func TestErrorShapeUniform(t *testing.T) {
	// Tiny clock budget: the second tick exhausts Algorithm 1's references,
	// the terminal (non-retryable) 503.
	srv := newServerClock(4, 2, 0, 1)
	h := startWire(t, srv.wire()).URL
	do := func(method, target, gen string) *httptest.ResponseRecorder {
		return genReq(t, h, method, target, gen)
	}
	if rec := do(http.MethodPost, "/clock/tick", ""); rec.Code != http.StatusOK {
		t.Fatalf("first tick: %d %s", rec.Code, rec.Body.String())
	}

	cases := []struct {
		name      string
		method    string
		target    string
		gen       string
		wantCode  int
		retryable bool
	}{
		{"counter-inc-wrong-method", http.MethodGet, "/counter/inc", "", http.StatusMethodNotAllowed, false},
		{"counter-add-wrong-method", http.MethodGet, "/counter/add", "", http.StatusMethodNotAllowed, false},
		{"counter-get-wrong-method", http.MethodPost, "/counter", "", http.StatusMethodNotAllowed, false},
		{"maxreg-wrong-method", http.MethodDelete, "/maxreg", "", http.StatusMethodNotAllowed, false},
		{"gset-wrong-method", http.MethodDelete, "/gset", "", http.StatusMethodNotAllowed, false},
		{"snapshot-wrong-method", http.MethodDelete, "/snapshot", "", http.StatusMethodNotAllowed, false},
		{"msnapshot-wrong-method", http.MethodDelete, "/msnapshot", "", http.StatusMethodNotAllowed, false},
		{"clock-tick-wrong-method", http.MethodGet, "/clock/tick", "", http.StatusMethodNotAllowed, false},
		{"fence-wrong-method", http.MethodGet, "/fence", "", http.StatusMethodNotAllowed, false},
		{"counter-add-missing-d", http.MethodPost, "/counter/add", "", http.StatusBadRequest, false},
		{"counter-add-negative-d", http.MethodPost, "/counter/add?d=-1", "", http.StatusBadRequest, false},
		{"maxreg-missing-v", http.MethodPost, "/maxreg", "", http.StatusBadRequest, false},
		{"maxreg-bad-v", http.MethodPost, "/maxreg?v=zebra", "", http.StatusBadRequest, false},
		{"gset-missing-x", http.MethodPost, "/gset", "", http.StatusBadRequest, false},
		{"gset-bad-membership-x", http.MethodGet, "/gset?x=zebra", "", http.StatusBadRequest, false},
		{"snapshot-missing-v", http.MethodPost, "/snapshot", "", http.StatusBadRequest, false},
		{"msnapshot-missing-v", http.MethodPost, "/msnapshot", "", http.StatusBadRequest, false},
		{"fence-bad-obj", http.MethodPost, "/fence?obj=clock&gen=1", "", http.StatusBadRequest, false},
		{"fence-bad-gen", http.MethodPost, "/fence?obj=counter&gen=-3", "", http.StatusBadRequest, false},
		{"bad-gen-header", http.MethodPost, "/counter/inc", "zebra", http.StatusBadRequest, false},
		{"clock-budget-terminal", http.MethodPost, "/clock/tick", "", http.StatusServiceUnavailable, false},
		{"kgset-add-wrong-method", http.MethodGet, "/kgset/add?k=a", "", http.StatusMethodNotAllowed, false},
		{"kgset-has-wrong-method", http.MethodPost, "/kgset/has?k=a", "", http.StatusMethodNotAllowed, false},
		{"map-inc-wrong-method", http.MethodGet, "/map/inc?k=a", "", http.StatusMethodNotAllowed, false},
		{"map-max-wrong-method", http.MethodGet, "/map/max?k=a&v=1", "", http.StatusMethodNotAllowed, false},
		{"map-get-wrong-method", http.MethodPost, "/map/get?k=a", "", http.StatusMethodNotAllowed, false},
		{"kgset-add-missing-k", http.MethodPost, "/kgset/add", "", http.StatusBadRequest, false},
		{"kgset-has-missing-k", http.MethodGet, "/kgset/has", "", http.StatusBadRequest, false},
		{"kgset-add-oversize-k", http.MethodPost, "/kgset/add?k=" + strings.Repeat("x", kmaxKeyLen+1), "", http.StatusBadRequest, false},
		{"map-inc-missing-k", http.MethodPost, "/map/inc", "", http.StatusBadRequest, false},
		{"map-inc-zero-d", http.MethodPost, "/map/inc?k=a&d=0", "", http.StatusBadRequest, false},
		{"map-inc-bad-d", http.MethodPost, "/map/inc?k=a&d=zebra", "", http.StatusBadRequest, false},
		{"map-max-missing-v", http.MethodPost, "/map/max?k=a", "", http.StatusBadRequest, false},
		{"map-max-negative-v", http.MethodPost, "/map/max?k=a&v=-1", "", http.StatusBadRequest, false},
		{"map-get-missing-k", http.MethodGet, "/map/get", "", http.StatusBadRequest, false},
		{"map-get-unknown-key", http.MethodGet, "/map/get?k=never-written", "", http.StatusNotFound, false},
		{"fence-bad-keyed-partition", http.MethodPost, "/fence?obj=kgset.p99&gen=1", "", http.StatusBadRequest, false},
		{"stats-wrong-method", http.MethodPost, "/stats", "", http.StatusMethodNotAllowed, false},
		{"unknown-path", http.MethodGet, "/nope", "", http.StatusNotFound, false},
		{"unknown-subpath", http.MethodPost, "/counter/inc/x", "", http.StatusNotFound, false},
	}
	// The frontend's rows: the same shape from the routing tier, whose
	// method checks and unknown paths answer before any proxying.
	f := newTestFrontend(t, []string{h}, fastHealth())
	f.health.Sweep(context.Background())
	f.reconcileOnce(context.Background())
	fh := startWire(t, f.wire()).URL
	for _, tc := range []struct {
		name, method, target string
		wantCode             int
	}{
		{"counter-get-wrong-method", http.MethodPost, "/counter", http.StatusMethodNotAllowed},
		{"counter-get-delete", http.MethodDelete, "/counter", http.StatusMethodNotAllowed},
		{"counter-inc-wrong-method", http.MethodGet, "/counter/inc", http.StatusMethodNotAllowed},
		{"maxreg-wrong-method", http.MethodDelete, "/maxreg", http.StatusMethodNotAllowed},
		{"gset-wrong-method", http.MethodDelete, "/gset?x=1", http.StatusMethodNotAllowed},
		{"kgset-has-wrong-method", http.MethodPost, "/kgset/has?k=a", http.StatusMethodNotAllowed},
		{"map-get-wrong-method", http.MethodPost, "/map/get?k=a", http.StatusMethodNotAllowed},
		{"map-inc-wrong-method", http.MethodGet, "/map/inc?k=a", http.StatusMethodNotAllowed},
		{"stats-wrong-method", http.MethodPost, "/stats", http.StatusMethodNotAllowed},
		{"map-get-missing-k", http.MethodGet, "/map/get", http.StatusBadRequest},
		{"kgset-add-oversize-k", http.MethodPost, "/kgset/add?k=" + strings.Repeat("x", kmaxKeyLen+1), http.StatusBadRequest},
		{"unknown-path", http.MethodGet, "/nope", http.StatusNotFound},
		{"backend-only-path", http.MethodPost, "/counter/add?d=1", http.StatusNotFound},
	} {
		t.Run("frontend-"+tc.name, func(t *testing.T) {
			rec := feReq(t, fh, tc.method, tc.target)
			if rec.Code != tc.wantCode {
				t.Fatalf("frontend %s %s: code %d, want %d (body %s)", tc.method, tc.target, rec.Code, tc.wantCode, rec.Body.String())
			}
			assertErrShape(t, rec, false)
		})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := do(tc.method, tc.target, tc.gen)
			if rec.Code != tc.wantCode {
				t.Fatalf("%s %s: code %d, want %d (body %s)", tc.method, tc.target, rec.Code, tc.wantCode, rec.Body.String())
			}
			assertErrShape(t, rec, tc.retryable)
		})
	}

	// The fenced-generation 409: raise the counter floor past a request's
	// generation; the refusal is retryable (the routing tier re-routes).
	if rec := do(http.MethodPost, "/fence?obj=counter&gen=5", ""); rec.Code != http.StatusOK {
		t.Fatalf("fence: %d %s", rec.Code, rec.Body.String())
	}
	rec := do(http.MethodPost, "/counter/inc", "3")
	if rec.Code != http.StatusConflict {
		t.Fatalf("fenced inc: code %d, want 409 (body %s)", rec.Code, rec.Body.String())
	}
	assertErrShape(t, rec, true)
	// At or above the floor is admitted — the fence is a floor, not a wall.
	if rec := do(http.MethodPost, "/counter/inc", "5"); rec.Code != http.StatusOK {
		t.Fatalf("inc at floor: %d %s", rec.Code, rec.Body.String())
	}

	// Keyed kind mismatch: the first write binds a key's kind; the other
	// kind's write on it is the client's 400, both directions.
	if rec := do(http.MethodPost, "/map/inc?k=bound-counter", ""); rec.Code != http.StatusOK {
		t.Fatalf("binding inc: %d %s", rec.Code, rec.Body.String())
	}
	rec = do(http.MethodPost, "/map/max?k=bound-counter&v=1", "")
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("max on counter key: %d, want 400 (body %s)", rec.Code, rec.Body.String())
	}
	assertErrShape(t, rec, false)
	if rec := do(http.MethodPost, "/map/max?k=bound-max&v=1", ""); rec.Code != http.StatusOK {
		t.Fatalf("binding max: %d %s", rec.Code, rec.Body.String())
	}
	rec = do(http.MethodPost, "/map/inc?k=bound-max", "")
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("inc on max key: %d, want 400 (body %s)", rec.Code, rec.Body.String())
	}
	assertErrShape(t, rec, false)

	// Keyed budget exhaustion: each cap-sized inc fills one (key, lane)
	// field; within lanes+1 of them some lane must repeat, and that inc is
	// the non-retryable 503 (growth cannot mint per-lane budget).
	capD := srv.kmap.FieldCap()
	budget503 := false
	for i := 0; i <= 4 && !budget503; i++ { // lanes = 4
		rec = do(http.MethodPost, fmt.Sprintf("/map/inc?k=budget&d=%d", capD), "")
		switch rec.Code {
		case http.StatusOK:
		case http.StatusServiceUnavailable:
			budget503 = true
			assertErrShape(t, rec, false)
		default:
			t.Fatalf("budget inc %d: unexpected %d (body %s)", i, rec.Code, rec.Body.String())
		}
	}
	if !budget503 {
		t.Fatal("per-lane budget never exhausted after lanes+1 cap-sized incs")
	}
}
