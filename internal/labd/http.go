package labd

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"net/http"
	"time"

	"repro/internal/campaign"
	"repro/internal/obs"
)

// NewHTTPServer wraps a handler in an http.Server with the service's
// hardening defaults: a header-read timeout (slowloris protection), a full
// request-read timeout, and an idle-connection timeout. Write timeouts are
// deliberately absent — manifest responses can be large and a slow scrape
// must not be killed mid-body. Both cplabd and the cluster coordinator's
// metrics listener serve through this.
func NewHTTPServer(handler http.Handler) *http.Server {
	return &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
}

// Handler returns the service's HTTP API:
//
//	POST   /jobs               submit a Spec (JSON body) → 202 + JobView
//	GET    /jobs               list jobs in submission order
//	GET    /jobs/{id}          one job's state and progress
//	GET    /jobs/{id}/manifest the job's committed campaign manifest
//	DELETE /jobs/{id}          cancel a queued or running job
//	GET    /metrics            service telemetry, Prometheus text format
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /jobs/{id}/manifest", s.handleManifest)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec Spec
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			httpError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("spec exceeds the %d-byte body limit", tooBig.Limit))
			return
		}
		httpError(w, http.StatusBadRequest, fmt.Sprintf("bad spec: %v", err))
		return
	}
	// Span lineage rides the job API as plain headers so the coordinator's
	// shard spans and this worker's job spans stitch into one trace.
	view, err := s.SubmitTraced(spec, r.Header.Get(obs.HeaderTraceID), r.Header.Get(obs.HeaderSpanID))
	if err != nil {
		httpError(w, httpStatus(err), err.Error())
		return
	}
	writeJSON(w, http.StatusAccepted, view)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Jobs())
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	view, ok := s.Job(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	writeJSON(w, http.StatusOK, view)
}

func (s *Server) handleManifest(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := s.Job(id); !ok {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	// Serve what is committed, not just the last compaction: mid-run the
	// records live in the journal, and the manifest file appears only when
	// the job halts or completes. Once it has, the fold is the file's bytes.
	man, err := campaign.Committed(s.cfg.fs(), s.ManifestPath(id))
	if errors.Is(err, fs.ErrNotExist) {
		httpError(w, http.StatusNotFound, "no manifest checkpointed yet")
		return
	}
	if err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	b, err := man.Encode()
	if err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(b)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	view, err := s.Cancel(r.PathValue("id"))
	if err != nil {
		httpError(w, httpStatus(err), err.Error())
		return
	}
	writeJSON(w, http.StatusOK, view)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.WriteMetrics(w); err != nil {
		s.logf("labd: /metrics: %v", err)
	}
}

// writeJSON emits one JSON response.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// httpError emits a JSON error body.
func httpError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}
