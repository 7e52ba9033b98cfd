package campaign

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
)

// Server serves campaign execution over HTTP/JSON: clients POST specs,
// poll status, and fetch JSONL results, while every campaign shares the
// server's content-addressed ResultStore — so overlapping sweeps from
// different clients hit each other's cached runs. cmd/campaignd wraps this
// in a binary; the type lives here so tests drive it with httptest.
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
}

// servedCampaign is one submitted campaign's mutable state.
type servedCampaign struct {
	mu      sync.Mutex
	id      string
	name    string
	total   int
	done    int
	state   string // "running", "done", "failed"
	errMsg  string
	results []RunResult // completion order; sorted by index when served
	stats   ExecStats
}

// NewServer validates the base configuration and returns a server.
// cfg supplies the per-campaign execution knobs (Workers, Shards, Hist)
// and the shared Store (an in-memory LRU is installed when nil). The
// per-process knobs that don't survive multiplexing — Output, Obs,
// OnResult, Filter, ranges — must be unset: each campaign gets its own
// engine and the server owns the result hook.
func NewServer(cfg Config) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Output != "" || cfg.Obs != nil ||
		cfg.OnResult != nil || cfg.Filter != "" || cfg.RangeParts != 0 {
		return nil, fmt.Errorf("campaign: server config must leave per-process knobs (output, obs, result hook, filter, ranges) unset")
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
		Done: c.done, Total: c.total, Error: c.errMsg,
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
		id:    fmt.Sprintf("c%d", s.seq),
		name:  spec.Name,
		total: len(runs),
		state: "running",
	}
	s.campaigns[c.id] = c
	s.order = append(s.order, c.id)
	s.mu.Unlock()

	cfg := s.cfg
	cfg.OnResult = func(res RunResult) {
		c.mu.Lock()
		c.done++
		c.results = append(c.results, res)
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
	}()

	writeJSON(w, http.StatusAccepted, submitResponse{
		Schema: SchemaVersion,
		ID:     c.id, Name: c.name, Runs: c.total, State: "running",
		StatusURL:  "/v1/campaigns/" + c.id,
		ResultsURL: "/v1/campaigns/" + c.id + "/results",
	})
}

// listResponse enumerates campaigns in submission order.
type listResponse struct {
	Schema    int              `json:"schema_version"`
	Campaigns []statusResponse `json:"campaigns"`
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
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
	writeJSON(w, http.StatusOK, out)
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
	results := append([]RunResult(nil), c.results...)
	c.mu.Unlock()
	if state != "done" {
		writeError(w, http.StatusConflict, fmt.Errorf("campaign: %s is %s; results are served when done", c.id, state))
		return
	}
	sort.Slice(results, func(i, j int) bool { return results[i].Index < results[j].Index })
	w.Header().Set("Content-Type", "application/jsonl")
	if err := WriteJSONL(w, results); err != nil {
		// Headers are gone; nothing to do but drop the connection.
		return
	}
}
