package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"time"

	"repro/internal/campaign"
)

// The served traffic copies the repository's own clients of the campaign
// server, examples/campaignserver and the campaignd smoke test in CI: a
// client submits the Example campaign, polls its status until it is done,
// reads the results, then submits the same campaign again and the shared
// cache serves all of it. Half the store lookups hit. Each session here
// gets its own LogGP latency scale from the seed, so its first submission
// is cold, as the walkthrough's first submission is on its fresh server.
const (
	pollEvery        = 10 * time.Millisecond // examples/campaignserver's status poll interval
	sessionsPerRound = 25
	reqHeader        = "X-Bench-Request"
)

// servedSpec is the campaign one session submits: the 24-run Example
// with the LogGP latency scaled by lscale, so distinct scales are distinct
// content and share no cache entries. Toy campaigns keep only the 4-rank
// runs.
func servedSpec(name string, lscale float64, toy bool) campaign.Spec {
	s := campaign.Example()
	if toy {
		s.Ranks = []int{4}
	}
	s.Name = name
	s.LogGP = []campaign.ParamOverride{
		{Name: "baseline", Scale: map[string]float64{"L": lscale}},
		{Name: "slow-net", Scale: map[string]float64{"L": 4 * lscale, "G": 2}},
	}
	return s
}

// sessionScales draws the LogGP latency scale of each of a round's
// sessions from the seed, uniform in [1, 2).
func sessionScales(seed uint64, round, n int) []float64 {
	rng := rand.New(rand.NewPCG(seed, 2+uint64(round)))
	scales := make([]float64, n)
	for i := range scales {
		scales[i] = 1 + rng.Float64()
	}
	return scales
}

// directDigest runs the spec on a plain engine and digests its JSONL: the
// bytes every served copy of the spec's results must equal.
func directDigest(s campaign.Spec) (string, error) {
	runs, err := s.Expand()
	if err != nil {
		return "", err
	}
	eng, err := campaign.NewEngine(campaign.Config{Workers: workers})
	if err != nil {
		return "", err
	}
	results, err := eng.Execute(runs)
	if err != nil {
		return "", err
	}
	return jsonlDigest(results)
}

// httpClient submits campaigns to one server and waits for their results.
type httpClient struct {
	c    *http.Client
	base string
	tr   *tracer
}

// served is what one submission observed.
type served struct {
	digest          string
	polls           int // status polls that found the campaign still running
	submit, results time.Duration
}

func (c *httpClient) do(method, path string, body []byte, req uint64) (int, []byte, error) {
	hr, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	hr.Header.Set(reqHeader, strconv.FormatUint(req, 10))
	resp, err := c.c.Do(hr)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// campaign POSTs one spec, polls its status every pollEvery until it is
// done, then reads its results and returns their digest.
func (c *httpClient) campaign(name string, body []byte, req uint64) (served, error) {
	var out served
	root := c.tr.id()
	t0 := time.Now()
	defer func() { c.tr.record(root, "client.campaign", 0, req, t0, time.Now()) }()
	status, resp, err := c.do(http.MethodPost, "/v1/campaigns", body, req)
	out.submit = time.Since(t0)
	c.tr.since("client.submit", root, req, t0)
	if err != nil {
		return out, err
	}
	if status != http.StatusAccepted {
		return out, fmt.Errorf("submit %s: status %d: %s", name, status, resp)
	}
	var sub struct {
		StatusURL  string `json:"status_url"`
		ResultsURL string `json:"results_url"`
	}
	if err := json.Unmarshal(resp, &sub); err != nil {
		return out, fmt.Errorf("submit %s: %w", name, err)
	}
	for {
		t := time.Now()
		status, resp, err := c.do(http.MethodGet, sub.StatusURL, nil, req)
		c.tr.since("client.status", root, req, t)
		if err != nil {
			return out, err
		}
		var st struct {
			State string `json:"state"`
			Error string `json:"error"`
		}
		if status != http.StatusOK {
			return out, fmt.Errorf("status %s: %d: %s", name, status, resp)
		}
		if err := json.Unmarshal(resp, &st); err != nil {
			return out, fmt.Errorf("status %s: %w", name, err)
		}
		if st.State == "done" {
			break
		}
		if st.State != "running" {
			return out, fmt.Errorf("%s: state %s: %s", name, st.State, st.Error)
		}
		out.polls++
		if time.Since(t0) > 30*time.Second {
			return out, fmt.Errorf("%s: not done after %d polls", name, out.polls)
		}
		time.Sleep(pollEvery)
	}
	t := time.Now()
	status, resp, err = c.do(http.MethodGet, sub.ResultsURL, nil, req)
	out.results = time.Since(t)
	c.tr.since("client.results", root, req, t)
	if err != nil {
		return out, err
	}
	if status != http.StatusOK {
		return out, fmt.Errorf("results %s: status %d: %s", name, status, resp)
	}
	sum := sha256.Sum256(resp)
	out.digest = hex.EncodeToString(sum[:])
	return out, nil
}

// session is one client's walkthrough: the spec submitted cold, then again
// from the cache.
type session struct {
	cold, warm served
	latency    time.Duration
}

func (c *httpClient) session(spec campaign.Spec, req uint64) (session, error) {
	var s session
	body, err := json.Marshal(spec)
	if err != nil {
		return s, err
	}
	t0 := time.Now()
	if s.cold, err = c.campaign(spec.Name, body, req); err != nil {
		return s, err
	}
	if s.warm, err = c.campaign(spec.Name, body, req); err != nil {
		return s, err
	}
	s.latency = time.Since(t0)
	return s, nil
}

// servedRun is one round's in-process server and its client side.
type servedRun struct {
	hs     *httptest.Server
	client *httpClient

	mu        sync.Mutex
	handlerMS []float64
}

// startServer builds a server over a fresh store and serves it through a
// handler that times (and, traced, spans) every request.
func startServer(ts *timedStore, tr *tracer) (*servedRun, error) {
	srv, err := campaign.NewServer(campaign.Config{Workers: workers, Store: freshStore(ts)})
	if err != nil {
		return nil, err
	}
	r := &servedRun{}
	h := srv.Handler()
	r.hs = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		t0 := time.Now()
		h.ServeHTTP(w, req)
		if tr == nil {
			return
		}
		id, _ := strconv.ParseUint(req.Header.Get(reqHeader), 10, 64)
		tr.since("http.handler "+req.Method, 0, id, t0)
		r.mu.Lock()
		r.handlerMS = append(r.handlerMS, ms(time.Since(t0)))
		r.mu.Unlock()
	}))
	r.client = &httpClient{c: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: workers}}, base: r.hs.URL, tr: tr}
	return r, nil
}

func (r *servedRun) close() {
	r.client.c.CloseIdleConnections()
	r.hs.Close()
}

// retained counts the campaigns the server holds.
func (r *servedRun) retained() (int, error) {
	status, body, err := r.client.do(http.MethodGet, "/v1/campaigns", nil, 0)
	if err != nil {
		return 0, err
	}
	var list struct {
		Campaigns []json.RawMessage `json:"campaigns"`
	}
	if status != http.StatusOK {
		return 0, fmt.Errorf("list: status %d", status)
	}
	err = json.Unmarshal(body, &list)
	return len(list.Campaigns), err
}

// runServed drives an in-process campaign server with a closed loop of
// `workers` clients, each running sessions back to back. Each round sets a
// server up over a fresh store, runs a fixed number of seeded sessions and
// closes the server; rounds repeat until cfg.seconds have passed. Both
// bodies of a session must equal a direct engine run of its spec.
func runServed(cfg config, _ *expectation, tr *tracer) measurement {
	var m measurement
	perRound := sessionsPerRound
	if cfg.toy {
		perRound = 8
	}
	var ts *timedStore
	if tr != nil {
		ts = &timedStore{tr: tr}
	}
	var (
		submitMS, resultsMS        []float64
		handlerMS                  []float64
		polls, campaigns, retained int
		next                       uint64
	)
	start := time.Now()
	for round := 0; round < 2 || time.Since(start).Seconds() < cfg.seconds; round++ {
		var r *servedRun
		for j := 0; j < setupsPerRun; j++ {
			if r != nil {
				r.close()
			}
			t0 := time.Now()
			var err error
			if r, err = startServer(ts, tr); err != nil {
				m.fail("round %d: %v", round, err)
				return m
			}
			m.Setup = append(m.Setup, time.Since(t0).Seconds())
			tr.since("server.setup", 0, 0, t0)
		}

		specs := make([]campaign.Spec, perRound)
		reqs := make([]uint64, perRound)
		for i, l := range sessionScales(cfg.seed, round, perRound) {
			next++
			reqs[i] = next
			specs[i] = servedSpec(fmt.Sprintf("session-%d", next), l, cfg.toy)
		}
		res := make([]session, perRound)
		errs := make([]error, perRound)
		t1 := time.Now()
		var wg sync.WaitGroup
		for c := 0; c < workers; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := c; i < perRound; i += workers {
					res[i], errs[i] = r.client.session(specs[i], reqs[i])
				}
			}(c)
		}
		wg.Wait()
		d := time.Since(t1)
		tr.since("round", 0, 0, t1)

		m.Attempted += 2 * perRound
		ok := 0
		for i := range specs {
			if errs[i] != nil {
				m.fail("session %d: %v", reqs[i], errs[i])
				continue
			}
			s := res[i]
			ok += 2
			m.OpMS = append(m.OpMS, ms(s.latency))
			for _, c := range []served{s.cold, s.warm} {
				submitMS = append(submitMS, ms(c.submit))
				resultsMS = append(resultsMS, ms(c.results))
				polls += c.polls
			}
			want, err := directDigest(specs[i])
			switch {
			case err != nil:
				m.fail("direct run of %s: %v", specs[i].Name, err)
			case s.cold.digest != want || s.warm.digest != want:
				m.fail("%s: served cold %s, warm %s, direct run %s", specs[i].Name, s.cold.digest, s.warm.digest, want)
			}
		}
		campaigns += ok
		m.Rates = append(m.Rates, float64(ok)/d.Seconds())
		if round == 0 {
			m.HeapMB = heapMB() // r and its retained campaigns are still live
		}
		if tr != nil {
			r.mu.Lock()
			handlerMS = append(handlerMS, r.handlerMS...)
			r.mu.Unlock()
			var err error
			if retained, err = r.retained(); err != nil {
				m.fail("listing campaigns: %v", err)
			}
		}
		r.close()
	}

	if tr != nil {
		m.layer("server.submit_ms_p50", median(submitMS))
		m.layer("server.submit_ms_p99", summarizeTail(submitMS, "ms").Value)
		m.layer("server.results_ms_p50", median(resultsMS))
		m.layer("server.results_ms_p99", summarizeTail(resultsMS, "ms").Value)
		m.layer("server.handler_ms_p50", median(handlerMS))
		m.layer("server.polls_per_campaign", float64(polls)/float64(max(campaigns, 1)))
		m.layer("server.retained_campaigns", float64(retained))
		ts.report(&m)
	}
	return m
}
