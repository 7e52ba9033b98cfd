package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
)

// Server serves campaign execution over HTTP/JSON: clients POST specs,
// poll status, and fetch JSONL results, while every campaign shares the
// server's content-addressed ResultStore — so overlapping sweeps from
// different clients hit each other's cached runs. cmd/campaignd wraps this
// in a binary; the type lives here so tests drive it with httptest.
//
// The server keeps every campaign it was given, and of each one only the
// submitted spec's bytes and one outcome per run: about 112 live bytes per
// run of a finished campaign (TestServedCampaignBytesPerRun). A results
// request expands the spec again and builds each row from its run and
// outcome, as the engine does for a cache hit.
//
// Endpoints (all responses carry "schema_version"):
//
//	POST /v1/campaigns           submit a spec (strict JSON), 202 + id
//	GET  /v1/campaigns           list campaigns
//	GET  /v1/campaigns/{id}      status: state, done/total, exec stats
//	GET  /v1/campaigns/{id}/results   JSONL rows in index order (when done)
//	GET  /v1/cache/stats         shared store hit/miss counters
//	GET  /healthz                liveness probe
type Server struct {
	cfg Config

	mu        sync.Mutex
	seq       int
	order     []string
	campaigns map[string]*servedCampaign
	running   int           // campaigns whose execution has not returned
	idle      chan struct{} // closed when running drops to zero
}

// servedCampaign is one submitted campaign's state.
type servedCampaign struct {
	mu       sync.Mutex
	id       string
	name     string
	body     []byte    // the submitted spec, expanded again for its results
	outcomes []outcome // by run index; complete once state is "done"
	done     int
	state    string // "running", "done", "failed"
	errMsg   string
	stats    ExecStats
}

// NewServer validates the base configuration and returns a server.
// cfg supplies the per-campaign execution knobs (Workers, Shards, Hist)
// and the shared Store (an in-memory LRU is installed when nil). The
// per-process knobs that don't survive multiplexing — Obs and OnResult —
// must be unset: each campaign gets its own engine and the server owns
// the result hook.
func NewServer(cfg Config) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Obs != nil || cfg.OnResult != nil {
		return nil, fmt.Errorf("campaign: server config must leave per-process knobs (obs, result hook) unset")
	}
	if cfg.Store == nil {
		cfg.Store = NewMemoryStore(0)
	}
	return &Server{cfg: cfg, campaigns: make(map[string]*servedCampaign)}, nil
}

// Store exposes the shared result store (for stats and tests).
func (s *Server) Store() ResultStore { return s.cfg.Store }

// Handler returns the server's HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/campaigns", s.handleSubmit)
	mux.HandleFunc("GET /v1/campaigns", s.handleList)
	mux.HandleFunc("GET /v1/campaigns/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/campaigns/{id}/results", s.handleResults)
	mux.HandleFunc("GET /v1/cache/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.cfg.Store.Stats())
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, "ok\n")
	})
	return mux
}

// errorBody is the JSON error envelope every non-2xx response uses.
type errorBody struct {
	Schema int    `json:"schema_version"`
	Error  string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorBody{Schema: SchemaVersion, Error: err.Error()})
}

// submitResponse acknowledges an accepted campaign.
type submitResponse struct {
	Schema     int    `json:"schema_version"`
	ID         string `json:"id"`
	Name       string `json:"name"`
	Runs       int    `json:"runs"`
	State      string `json:"state"`
	StatusURL  string `json:"status_url"`
	ResultsURL string `json:"results_url"`
}

// statusResponse reports one campaign's progress.
type statusResponse struct {
	Schema int       `json:"schema_version"`
	ID     string    `json:"id"`
	Name   string    `json:"name"`
	State  string    `json:"state"`
	Done   int       `json:"done"`
	Total  int       `json:"total"`
	Error  string    `json:"error,omitempty"`
	Stats  ExecStats `json:"stats"`
}

func (c *servedCampaign) status() statusResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	return statusResponse{
		Schema: SchemaVersion,
		ID:     c.id, Name: c.name, State: c.state,
		Done: c.done, Total: len(c.outcomes), Error: c.errMsg,
		Stats: c.stats,
	}
}

// handleSubmit accepts a campaign spec, expands it synchronously (so a bad
// spec is a 400 with the expansion error, not a failed campaign), then
// executes it in the background.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 16<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("campaign: reading body: %w", err))
		return
	}
	spec, err := ParseSpec(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	runs, err := spec.Expand()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}

	s.mu.Lock()
	s.seq++
	c := &servedCampaign{
		id:   fmt.Sprintf("c%d", s.seq),
		name: spec.Name,
		// A copy: the read buffer has spare capacity.
		body:     bytes.Clone(body),
		outcomes: make([]outcome, len(runs)),
		state:    "running",
	}
	s.campaigns[c.id] = c
	s.order = append(s.order, c.id)
	s.mu.Unlock()

	cfg := s.cfg
	cfg.OnResult = func(res RunResult) {
		c.mu.Lock()
		c.done++
		c.outcomes[res.Index] = outcomeOf(&res)
		c.mu.Unlock()
	}
	eng, err := NewEngine(cfg)
	if err != nil {
		// Base config was validated in NewServer; this is unreachable
		// short of a data race, but fail the campaign rather than panic.
		c.mu.Lock()
		c.state, c.errMsg = "failed", err.Error()
		c.mu.Unlock()
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	s.mu.Lock()
	if s.running == 0 {
		s.idle = make(chan struct{})
	}
	s.running++
	s.mu.Unlock()
	go func() {
		_, execErr := eng.Execute(runs)
		c.mu.Lock()
		c.stats = eng.Stats()
		if execErr != nil {
			c.state, c.errMsg = "failed", execErr.Error()
		} else {
			c.state = "done"
		}
		c.mu.Unlock()
		s.mu.Lock()
		s.running--
		if s.running == 0 {
			close(s.idle)
		}
		s.mu.Unlock()
	}()

	writeJSON(w, http.StatusAccepted, submitResponse{
		Schema: SchemaVersion,
		ID:     c.id, Name: c.name, Runs: len(runs), State: "running",
		StatusURL:  "/v1/campaigns/" + c.id,
		ResultsURL: "/v1/campaigns/" + c.id + "/results",
	})
}

// Wait blocks until no campaign is running, or until ctx ends; then it
// returns an error naming each campaign still running with its done/total
// run count. Call it once the handler takes no more submissions and before
// closing the store, so the store outlives every Put.
func (s *Server) Wait(ctx context.Context) error {
	s.mu.Lock()
	running, idle := s.running, s.idle
	s.mu.Unlock()
	if running == 0 {
		return nil
	}
	select {
	case <-idle:
		return nil
	case <-ctx.Done():
	}
	var unfinished []string
	for _, st := range s.list().Campaigns {
		if st.State == "running" {
			unfinished = append(unfinished, fmt.Sprintf("%s %q at %d/%d runs", st.ID, st.Name, st.Done, st.Total))
		}
	}
	if len(unfinished) == 0 {
		return nil
	}
	return fmt.Errorf("campaign: %d campaign(s) still running: %s", len(unfinished), strings.Join(unfinished, ", "))
}

// listResponse enumerates campaigns in submission order.
type listResponse struct {
	Schema    int              `json:"schema_version"`
	Campaigns []statusResponse `json:"campaigns"`
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.list())
}

// list reports every campaign's status in submission order.
func (s *Server) list() listResponse {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	s.mu.Unlock()
	out := listResponse{Schema: SchemaVersion, Campaigns: []statusResponse{}}
	for _, id := range ids {
		s.mu.Lock()
		c := s.campaigns[id]
		s.mu.Unlock()
		out.Campaigns = append(out.Campaigns, c.status())
	}
	return out
}

func (s *Server) lookup(r *http.Request) (*servedCampaign, error) {
	id := r.PathValue("id")
	s.mu.Lock()
	c := s.campaigns[id]
	s.mu.Unlock()
	if c == nil {
		return nil, fmt.Errorf("campaign: no campaign %q", id)
	}
	return c, nil
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	c, err := s.lookup(r)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, c.status())
}

// handleResults serves the finished campaign as JSONL in index order —
// byte-identical to the file a single-process CLI run of the same spec
// writes. A campaign still running is a 409: partial output would violate
// that identity.
func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	c, err := s.lookup(r)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	c.mu.Lock()
	state := c.state
	c.mu.Unlock()
	if state != "done" {
		writeError(w, http.StatusConflict, fmt.Errorf("campaign: %s is %s; results are served when done", c.id, state))
		return
	}
	// Once done, the body and outcomes are no longer written.
	spec, err := ParseSpec(c.body)
	var runs []Run
	if err == nil {
		runs, err = spec.Expand()
	}
	if err != nil {
		// The spec expanded when it was submitted; unreachable.
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	results := make([]RunResult, len(runs))
	for i, run := range runs {
		results[i] = run.row(c.outcomes[i])
	}
	w.Header().Set("Content-Type", "application/jsonl")
	if err := WriteJSONL(w, results); err != nil {
		// Headers are gone; nothing to do but drop the connection.
		return
	}
}
