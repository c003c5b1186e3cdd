package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	goruntime "runtime"
	"sort"
	"strconv"
	"sync"
	"time"
)

// The open loop's schedule, the same on every workload: about two seconds
// of single lookups at a rate the server meets with room to spare, so the
// median measures a lookup rather than a queue.
const (
	openLoopRate  = 1000 // requests per second
	openLoopCount = 2000
)

// loadConfig is one lookup-client session against a serving process.
type loadConfig struct {
	Addr    string
	Queries []Query
	// Phase 1, closed loop over one connection: Batches POST /v1/edges
	// requests of Batch edges, with Reloads POST /v1/reload calls fired
	// at fixed request counts on a second connection.
	Batch, Batches, Reloads int
	// Phase 2, open loop: Count GET /v1/edge requests due at Rate per
	// second, sent over at most Conns connections.
	Rate  float64
	Count int
	Conns int
	Rec   *Recorder
}

type loadResult struct {
	Lookups     int64     `json:"lookups"`
	Phase1S     float64   `json:"phase1_s"`
	LookupsPerS float64   `json:"lookups_per_s"`
	ReloadS     []float64 `json:"reload_s"`
	P50Ms       float64   `json:"lookup_p50_ms"`
	TailMs      float64   `json:"tail_ms"`
	TailPct     float64   `json:"tail_pct"`
	Samples     int       `json:"samples"`
	GenLateMs   float64   `json:"gen_late_ms"`
	Attempted   int64     `json:"attempted"`
	Failed      int64     `json:"failed"`
	Wrong       int64     `json:"wrong"`
	// Server-side handler medians from the server's own /v1/metrics.
	HandlerBatchP50us float64 `json:"handler_batch_p50_us"`
	HandlerEdgeP50us  float64 `json:"handler_edge_p50_us"`
}

// conn is an HTTP client pinned to a single keep-alive connection.
func conn() *http.Client {
	return &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

// session tracks request outcomes across the client goroutines.
type session struct {
	cfg       loadConfig
	mu        sync.Mutex
	attempted int64
	failed    int64
	wrong     int64
}

func (s *session) count(failed, wrong bool) {
	s.mu.Lock()
	s.attempted++
	if failed || wrong {
		s.failed++
	}
	if wrong {
		s.wrong++
	}
	s.mu.Unlock()
}

// do sends one request, spanned as name with its span id in the
// X-Bench-Req header so the server's handler span joins it, and decodes a
// 200 JSON answer into out.
func (s *session) do(c *http.Client, name, method, url string, body []byte, out any) error {
	sp := s.cfg.Rec.Begin(name, 0, 0)
	sp.Req = sp.ID
	defer s.cfg.Rec.End(sp)
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return err
	}
	if sp.ID != 0 {
		req.Header.Set(reqHeader, strconv.FormatInt(sp.ID, 10))
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("%s %s: status %d", method, url, resp.StatusCode)
	}
	if out == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// reqHeader carries the client span id to the server's handler span.
const reqHeader = "X-Bench-Req"

// runLoad drives both phases and reads the server's handler histograms.
func runLoad(cfg loadConfig) (loadResult, error) {
	if len(cfg.Queries) < cfg.Batch {
		return loadResult{}, fmt.Errorf("%d queries cannot fill a %d-edge batch", len(cfg.Queries), cfg.Batch)
	}
	// Client connections never exceed the cores: the lookup connection plus
	// the reload connection in phase 1, Conns workers in phase 2.
	cfg.Conns = max(1, min(cfg.Conns, goruntime.NumCPU()))
	s := &session{cfg: cfg}
	var res loadResult
	if err := s.closedLoop(&res); err != nil {
		return res, err
	}
	s.openLoop(&res)
	var snap struct {
		Timers []struct {
			Name  string `json:"name"`
			P50Ns int64  `json:"p50_ns"`
		} `json:"timers"`
	}
	if err := s.do(conn(), "client.metrics", "GET", "http://"+cfg.Addr+"/v1/metrics", nil, &snap); err != nil {
		return res, fmt.Errorf("reading server metrics: %w", err)
	}
	for _, t := range snap.Timers {
		switch t.Name {
		case "serve.edges.latency":
			res.HandlerBatchP50us = float64(t.P50Ns) / 1e3
		case "serve.edge.latency":
			res.HandlerEdgeP50us = float64(t.P50Ns) / 1e3
		}
	}
	res.Attempted, res.Failed, res.Wrong = s.attempted, s.failed, s.wrong
	return res, nil
}

// closedLoop is phase 1: each batch waits for the previous answer. The
// reloads run beside it on their own connection; the lookup loop never
// waits for them, and phase 1 ends with the last batch.
func (s *session) closedLoop(res *loadResult) error {
	cfg := s.cfg
	nb := len(cfg.Queries) / cfg.Batch
	bodies := make([][]byte, nb)
	for b := range bodies {
		pairs := make([][2]uint32, cfg.Batch)
		for i := range pairs {
			e := cfg.Queries[b*cfg.Batch+i].Edge
			pairs[i] = [2]uint32{uint32(e.Src), uint32(e.Dst)}
		}
		var err error
		if bodies[b], err = json.Marshal(map[string]any{"edges": pairs}); err != nil {
			return err
		}
	}
	lookup, reloader := conn(), conn()
	if cfg.Conns < 2 {
		reloader = lookup
	}
	fire := make(chan struct{}, cfg.Reloads) // one slot per reload: the loop never blocks on it
	reloads := make([]float64, 0, cfg.Reloads)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for range cfg.Reloads {
			<-fire
			t := time.Now()
			err := s.do(reloader, "client.reload", "POST", "http://"+cfg.Addr+"/v1/reload", nil, nil)
			s.count(err != nil, false)
			if err == nil {
				reloads = append(reloads, time.Since(t).Seconds())
			}
		}
	}()
	url := "http://" + cfg.Addr + "/v1/edges"
	var answer struct {
		Partitions []int32 `json:"partitions"`
	}
	next := 0
	start := time.Now()
	for b := 0; b < cfg.Batches; b++ {
		if next < cfg.Reloads && b == cfg.Batches*(next+1)/(cfg.Reloads+1) {
			fire <- struct{}{}
			next++
		}
		q := cfg.Queries[(b%nb)*cfg.Batch : (b%nb+1)*cfg.Batch]
		answer.Partitions = answer.Partitions[:0]
		err := s.do(lookup, "client.batch", "POST", url, bodies[b%nb], &answer)
		wrong := err == nil && !batchMatches(q, answer.Partitions)
		s.count(err != nil, wrong)
		if err == nil {
			res.Lookups += int64(len(q))
		}
	}
	res.Phase1S = time.Since(start).Seconds()
	for ; next < cfg.Reloads; next++ {
		fire <- struct{}{}
	}
	wg.Wait()
	res.LookupsPerS = float64(res.Lookups) / res.Phase1S
	res.ReloadS = reloads
	return nil
}

func batchMatches(q []Query, got []int32) bool {
	if len(got) != len(q) {
		return false
	}
	for i := range q {
		if got[i] != q[i].Want {
			return false
		}
	}
	return true
}

// openLoop is phase 2: requests fall due on a fixed schedule whatever the
// server does, and each is timed from its due time, so a stall is charged
// to every request it delays.
func (s *session) openLoop(res *loadResult) {
	cfg := s.cfg
	interval := time.Duration(float64(time.Second) / cfg.Rate)
	lat := make([]time.Duration, cfg.Count)
	jobs := make(chan int, cfg.Count) // holds the whole schedule, so the generator never waits on a worker
	start := time.Now().Add(5 * time.Millisecond)
	var late time.Duration
	go func() {
		for i := range cfg.Count {
			due := start.Add(time.Duration(i) * interval)
			time.Sleep(time.Until(due))
			late = max(late, time.Since(due))
			jobs <- i
		}
		close(jobs)
	}()
	var wg sync.WaitGroup
	for range cfg.Conns {
		c := conn()
		wg.Add(1)
		go func() {
			defer wg.Done()
			var answer struct {
				Partition int32 `json:"partition"`
			}
			for i := range jobs {
				due := start.Add(time.Duration(i) * interval)
				q := cfg.Queries[i%len(cfg.Queries)]
				url := fmt.Sprintf("http://%s/v1/edge?src=%d&dst=%d", cfg.Addr, q.Edge.Src, q.Edge.Dst)
				err := s.do(c, "client.edge", "GET", url, nil, &answer)
				lat[i] = time.Since(due)
				wrong := err == nil && answer.Partition != q.Want
				s.count(err != nil, wrong)
				if err != nil || wrong {
					lat[i] = -1
				}
			}
		}()
	}
	wg.Wait() // the generator closed jobs before the workers could finish
	ok := make([]time.Duration, 0, len(lat))
	for _, d := range lat {
		if d >= 0 {
			ok = append(ok, d)
		}
	}
	sort.Slice(ok, func(i, j int) bool { return ok[i] < ok[j] })
	res.Samples = len(ok)
	res.GenLateMs = float64(late) / 1e6
	if len(ok) > 0 {
		res.P50Ms = float64(ok[rank(len(ok), 1, 2)-1]) / 1e6
	}
	if pct, r, found := tail(len(ok)); found {
		res.TailPct = pct
		res.TailMs = float64(ok[r-1]) / 1e6
	}
}

// rank is the nearest-rank position (1-based) of the num/den quantile of
// n sorted samples: ceil(n·num/den).
func rank(n, num, den int) int { return max(1, (n*num+den-1)/den) }

// tail picks the highest of the percentiles 50, 90, 99, 99.9, ... that has
// at least ten of n sorted samples beyond it, and returns it with its
// nearest rank; found is false when even the median has fewer than ten
// samples beyond it.
func tail(n int) (pct float64, r int, found bool) {
	num, den := 1, 2
	for den <= 1e9 {
		rk := rank(n, num, den)
		if n-rk < 10 {
			break
		}
		pct, r, found = 100*float64(num)/float64(den), rk, true
		if num == 1 {
			num, den = 9, 10
		} else {
			num, den = num*10+9, den*10
		}
	}
	return pct, r, found
}
