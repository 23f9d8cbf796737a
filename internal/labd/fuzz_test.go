package labd

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// FuzzSubmitSpec drives POST /jobs through Server.Handler with arbitrary
// bodies, each carrying an arbitrary "resume" manifest. Whatever the bytes,
// the service never panics and never answers 5xx, and every 202 names a job
// that GET /jobs/{id} serves; an accepted job then runs to a terminal state,
// so a fuzzed resume manifest is consumed, not just decoded. Jobs run on the
// fake-entry plan: it holds one cheap entry per id, and pool.Run caps
// workers by the plan size and by the process's CPU budget, so a fuzzed
// "parallel" cannot start more than GOMAXPROCS workers.
func FuzzSubmitSpec(f *testing.F) {
	full := seedManifest(f, `{"ids":["alpha","beta"],"seed":1}`)
	var partial map[string]any
	if err := json.Unmarshal(full, &partial); err != nil {
		f.Fatal(err)
	}
	delete(partial["entries"].(map[string]any), "beta")
	part, _ := json.Marshal(partial)

	f.Add([]byte(`{"ids":["alpha","beta"],"seed":1}`), full)
	f.Add([]byte(`{"ids":["alpha","beta","gamma"],"parallel":3}`), part)
	f.Add([]byte(`{}`), full)
	f.Add([]byte(`{"ids":["alpha"],"seed":2}`), full)
	f.Add([]byte(`{"ids":["fail-x","beta"],"seed":7,"retries":2,"faults":0.1,"simbudget":1000}`), []byte(nil))
	f.Add([]byte(`{"ids":["alpha"],"parallel":-3,"paper":true}`), []byte(`null`))
	f.Add([]byte(`{"ids":["alpha"]}`), []byte(`{"seed":1,"note":"paper=false","entries":{"alpha":null}}`))
	f.Add([]byte(`{"bogus":1}`), []byte(nil))
	f.Add([]byte(`not json`), full)

	f.Fuzz(func(t *testing.T, body, resume []byte) {
		srv, err := NewServer(testConfig(t.TempDir(), nil))
		if err != nil {
			t.Fatal(err)
		}
		srv.Start()
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := srv.Drain(ctx); err != nil {
				t.Fatal(err)
			}
		}()
		h := srv.Handler()

		rec := serve(h, http.MethodPost, "/jobs", withResume(body, resume))
		if rec.Code >= 500 {
			t.Fatalf("POST /jobs: status %d: %s", rec.Code, rec.Body)
		}
		if rec.Code != http.StatusAccepted {
			return
		}
		var view JobView
		if err := json.Unmarshal(rec.Body.Bytes(), &view); err != nil {
			t.Fatalf("202 body is not a job view: %v: %s", err, rec.Body)
		}
		got := serve(h, http.MethodGet, "/jobs/"+view.ID, nil)
		if got.Code != http.StatusOK {
			t.Fatalf("GET /jobs/%s after 202: status %d: %s", view.ID, got.Code, got.Body)
		}
		var served JobView
		if err := json.Unmarshal(got.Body.Bytes(), &served); err != nil || served.ID != view.ID {
			t.Fatalf("GET /jobs/%s served %q (err %v)", view.ID, served.ID, err)
		}
		waitTerminal(t, srv, view.ID)
	})
}

// serve runs one request through h in-process.
func serve(h http.Handler, method, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	return rec
}

// withResume splices manifest into body as its "resume" field when body
// opens a JSON object; any other body goes out unchanged.
func withResume(body, manifest []byte) []byte {
	rest, ok := bytes.CutPrefix(bytes.TrimSpace(body), []byte("{"))
	if !ok || len(manifest) == 0 {
		return body
	}
	out := append([]byte(`{"resume":`), manifest...)
	if r := bytes.TrimSpace(rest); len(r) == 0 || r[0] != '}' {
		out = append(out, ',')
	}
	return append(out, rest...)
}

// waitTerminal waits until job id leaves the queued and running states.
func waitTerminal(tb testing.TB, srv *Server, id string) JobView {
	tb.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		view, ok := srv.Job(id)
		if !ok {
			tb.Fatalf("job %s vanished", id)
		}
		if view.State.terminal() {
			return view
		}
		if time.Now().After(deadline) {
			tb.Fatalf("job %s still %s after 10s", id, view.State)
		}
		time.Sleep(time.Millisecond)
	}
}

// seedManifest runs spec to completion on a fresh test server and returns
// the job's committed manifest: a real resume manifest for the corpus.
func seedManifest(tb testing.TB, spec string) []byte {
	srv, err := NewServer(testConfig(tb.TempDir(), nil))
	if err != nil {
		tb.Fatal(err)
	}
	srv.Start()
	defer srv.Drain(context.Background())
	h := srv.Handler()
	rec := serve(h, http.MethodPost, "/jobs", []byte(spec))
	var view JobView
	if err := json.Unmarshal(rec.Body.Bytes(), &view); rec.Code != http.StatusAccepted || err != nil {
		tb.Fatalf("seed submit: status %d: %s", rec.Code, rec.Body)
	}
	if v := waitTerminal(tb, srv, view.ID); v.State != StateDone {
		tb.Fatalf("seed job landed %s: %s", v.State, v.Error)
	}
	man := serve(h, http.MethodGet, "/jobs/"+view.ID+"/manifest", nil)
	if man.Code != http.StatusOK {
		tb.Fatalf("seed manifest: status %d: %s", man.Code, man.Body)
	}
	return man.Body.Bytes()
}
