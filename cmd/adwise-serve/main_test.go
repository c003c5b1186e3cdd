package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	adwise "github.com/adwise-go/adwise"
)

func writeFixtures(t *testing.T) (graphPath, assignmentPath string, a *adwise.Assignment) {
	t.Helper()
	g, err := adwise.Community(8, 8, 0.9, 40, 3)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	graphPath = filepath.Join(dir, "g.txt")
	if err := adwise.SaveGraph(graphPath, g); err != nil {
		t.Fatal(err)
	}
	s, err := adwise.NewStrategy("hdrf", adwise.StrategySpec{K: 4, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	a, err = s.Run(adwise.StreamGraph(g))
	if err != nil {
		t.Fatal(err)
	}
	assignmentPath = filepath.Join(dir, "parts.tsv")
	if err := adwise.SaveAssignment(assignmentPath, a); err != nil {
		t.Fatal(err)
	}
	return graphPath, assignmentPath, a
}

func TestServeFromAssignment(t *testing.T) {
	_, parts, a := writeFixtures(t)
	o, err := parseArgs([]string{"-assignment", parts})
	if err != nil {
		t.Fatal(err)
	}
	store, err := buildStore(o)
	if err != nil {
		t.Fatal(err)
	}
	ins := adwise.NewServeInstruments(adwise.NewMetricRegistry())
	srv := httptest.NewServer(newHandler(store, ins, o))
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", resp.StatusCode)
	}

	// Served partitions match the round-tripped assignment (last write
	// wins for duplicate stream edges).
	want := make(map[adwise.Edge]int32, a.Len())
	for i, e := range a.Edges {
		want[e] = a.Parts[i]
	}
	for i := 0; i < len(a.Edges); i += 37 {
		e := a.Edges[i]
		p, ok := store.View().Partition(e.Src, e.Dst)
		if !ok || p != want[e] {
			t.Fatalf("edge %v: served (%d,%v), want (%d,true)", e, p, ok, want[e])
		}
	}

	// Hot reload: POST /v1/reload rebuilds from the file and bumps the
	// generation without interrupting service.
	resp, err = srv.Client().Post(srv.URL+"/v1/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload = %d, want 200", resp.StatusCode)
	}
	var out struct {
		Generation uint64 `json:"generation"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Generation != 2 {
		t.Errorf("generation after reload = %d, want 2", out.Generation)
	}

	// A failed reload keeps serving the old generation: first a copy cut
	// at a row boundary, whose header edge count then disagrees with its
	// rows, then garbage.
	full, err := os.ReadFile(parts)
	if err != nil {
		t.Fatal(err)
	}
	truncated := full[:bytes.LastIndexByte(full[:len(full)/2], '\n')+1]
	for _, bad := range [][]byte{truncated, []byte("not an assignment\n\x00\xff")} {
		if err := os.WriteFile(parts, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		resp, err := srv.Client().Post(srv.URL+"/v1/reload", "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("reload of a %d-byte bad file = %d, want 500", len(bad), resp.StatusCode)
		}
		checkOldGeneration(t, srv, a.Edges, want)
	}
}

// checkOldGeneration checks that srv still reports generation 2 and
// answers a batch of every assignment edge from the index that generation
// was built from.
func checkOldGeneration(t *testing.T, srv *httptest.Server, edges []adwise.Edge, want map[adwise.Edge]int32) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Generation uint64 `json:"generation"`
	}
	err = json.NewDecoder(resp.Body).Decode(&health)
	resp.Body.Close()
	if err != nil || health.Generation != 2 {
		t.Fatalf("healthz after a failed reload: generation %d (%v), want 2", health.Generation, err)
	}

	pairs := make([][2]uint32, len(edges))
	for i, e := range edges {
		pairs[i] = [2]uint32{uint32(e.Src), uint32(e.Dst)}
	}
	body, err := json.Marshal(map[string]any{"edges": pairs})
	if err != nil {
		t.Fatal(err)
	}
	resp, err = srv.Client().Post(srv.URL+"/v1/edges", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Partitions []int32 `json:"partitions"`
	}
	err = json.NewDecoder(resp.Body).Decode(&out)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || err != nil || len(out.Partitions) != len(edges) {
		t.Fatalf("batch after a failed reload: status %d, %d partitions for %d edges (%v)",
			resp.StatusCode, len(out.Partitions), len(edges), err)
	}
	for i, e := range edges {
		if out.Partitions[i] != want[e] {
			t.Fatalf("batch after a failed reload: edge %v served %d, want %d", e, out.Partitions[i], want[e])
		}
	}
}

func TestServeFromGraph(t *testing.T) {
	graphPath, _, _ := writeFixtures(t)
	o, err := parseArgs([]string{"-in", graphPath, "-algo", "adwise", "-k", "4", "-window", "64", "-z", "2"})
	if err != nil {
		t.Fatal(err)
	}
	store, err := buildStore(o)
	if err != nil {
		t.Fatal(err)
	}
	st := store.View().Stats()
	if st.K != 4 || st.DistinctEdges == 0 {
		t.Fatalf("stats = %+v, want k=4 and edges indexed", st)
	}
	// No -assignment: the reload endpoint is absent.
	ins := adwise.NewServeInstruments(adwise.NewMetricRegistry())
	srv := httptest.NewServer(newHandler(store, ins, o))
	defer srv.Close()
	resp, err := srv.Client().Post(srv.URL+"/v1/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Error("reload endpoint exposed without -assignment")
	}
}

// TestServeFromFileMatchesAdwise holds -in to the path adwise takes: for
// the same flags, the assignment loadAssignment returns saves to the same
// bytes as PartitionFileSpotlight with the spec adwise builds, on a text
// and a binary file at every z.
func TestServeFromFileMatchesAdwise(t *testing.T) {
	g, err := adwise.Community(8, 8, 0.9, 40, 3)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	saved := func(a *adwise.Assignment) []byte {
		t.Helper()
		out := filepath.Join(dir, "parts.tsv")
		if err := adwise.SaveAssignment(out, a); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for _, file := range []string{"g.txt", "g.bin"} {
		path := filepath.Join(dir, file)
		if err := adwise.SaveGraph(path, g); err != nil {
			t.Fatal(err)
		}
		for _, z := range []int{1, 2, 4} {
			for _, c := range []struct {
				algo   string
				window int
			}{{"hdrf", 0}, {"adwise", 64}} {
				name := fmt.Sprintf("%s/z=%d/%s", file, z, c.algo)
				o, err := parseArgs([]string{"-in", path, "-k", "8", "-z", strconv.Itoa(z), "-algo", c.algo, "-window", strconv.Itoa(c.window)})
				if err != nil {
					t.Fatal(err)
				}
				served, err := loadAssignment(o)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				spec := adwise.StrategySpec{K: 8, Seed: 42, Window: c.window}
				want, err := adwise.PartitionFileSpotlight(c.algo, path, adwise.SpotlightConfig{K: 8, Z: z, Spread: 8 / z}, spec)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if !bytes.Equal(saved(served), saved(want)) {
					t.Errorf("%s: the served assignment differs from the one adwise writes", name)
				}
			}
		}
	}
}

func TestRunErrors(t *testing.T) {
	graphPath, parts, _ := writeFixtures(t)
	empty := filepath.Join(t.TempDir(), "empty.txt")
	if err := os.WriteFile(empty, []byte("# no edges\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	tests := [][]string{
		{},                                            // neither input
		{"-assignment", parts, "-in", graphPath},      // both inputs
		{"-assignment", "/nonexistent.tsv"},           // unreadable assignment
		{"-in", "/nonexistent.txt"},                   // unreadable graph
		{"-in", graphPath, "-algo", "bogus"},          // unknown strategy
		{"-in", graphPath, "-k", "0"},                 // invalid k
		{"-in", graphPath, "-z", "0"},                 // invalid z
		{"-in", graphPath, "-k", "4", "-spread", "2"}, // z=1 fills all k partitions
		{"-in", empty},                                // no edge for the one instance
		{"-assignment", parts, "-addr", "bogus:x"},    // unlistenable address
	}
	for _, args := range tests {
		if err := run(context.Background(), args, io.Discard); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
	// A spotlight config the executor would reject fails before the file
	// is planned: on a missing file the error is the config's, not the
	// open's.
	for _, args := range [][]string{
		{"-in", "/nonexistent.txt", "-k", "32", "-z", "3"},
		{"-in", "/nonexistent.txt", "-k", "4", "-spread", "2"},
	} {
		if err := run(context.Background(), args, io.Discard); err == nil || strings.Contains(err.Error(), "nonexistent") {
			t.Errorf("run(%v) = %v, want the config error before the file is planned", args, err)
		}
	}
	// So does a strategy the registry lacks: the error names it, not the
	// missing file.
	for _, z := range []string{"1", "2"} {
		args := []string{"-in", "/nonexistent.txt", "-k", "4", "-z", z, "-algo", "bogus"}
		if err := run(context.Background(), args, io.Discard); err == nil || !strings.Contains(err.Error(), "bogus") || strings.Contains(err.Error(), "nonexistent") {
			t.Errorf("run(%v) = %v, want the unknown strategy before the file is planned", args, err)
		}
	}
}

// addrWriter stands in for run's stdout and passes on the listen address
// it prints.
type addrWriter chan string

func (w addrWriter) Write(p []byte) (int, error) {
	if _, addr, ok := strings.Cut(string(p), "serving partition lookups on http://"); ok {
		w <- strings.TrimSpace(addr)
	}
	return len(p), nil
}

// metricsSnapshot is the part of a -metrics-out line the shutdown test
// reads.
type metricsSnapshot struct {
	Counters []struct {
		Name  string `json:"name"`
		Value int64  `json:"value"`
	} `json:"counters"`
	Timers []struct {
		Name  string `json:"name"`
		Count int64  `json:"count"`
	} `json:"timers"`
}

func (s metricsSnapshot) counter(name string) int64 {
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

func (s metricsSnapshot) timerCount(name string) int64 {
	for _, t := range s.Timers {
		if t.Name == name {
			return t.Count
		}
	}
	return 0
}

// batchRequestsStarted asks the server how many batch requests its
// handler has begun.
func batchRequestsStarted(t *testing.T, addr string) int64 {
	t.Helper()
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	resp, err := client.Get("http://" + addr + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap metricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	return snap.counter("serve.edges.requests")
}

// TestServeStopsCleanlyOnSignal sends half the body of a batch request,
// then a stop signal. The server must stop accepting connections, answer
// the request once its body is complete, return nil from run, and write a
// final -metrics-out snapshot that counts the request.
func TestServeStopsCleanlyOnSignal(t *testing.T) {
	for _, c := range []struct {
		name string
		sig  syscall.Signal
	}{{"SIGTERM", syscall.SIGTERM}, {"SIGINT", syscall.SIGINT}} {
		t.Run(c.name, func(t *testing.T) {
			_, parts, a := writeFixtures(t)
			metricsOut := filepath.Join(t.TempDir(), "metrics.jsonl")
			ctx, stop := signal.NotifyContext(context.Background(), stopSignals...)
			defer stop()
			addrs := make(addrWriter, 1)
			done := make(chan error, 1)
			go func() {
				done <- run(ctx, []string{"-assignment", parts, "-addr", "127.0.0.1:0", "-metrics-out", metricsOut}, addrs)
			}()
			var addr string
			select {
			case addr = <-addrs:
			case err := <-done:
				t.Fatalf("run returned before serving: %v", err)
			}
			finished := false
			defer func() {
				if !finished {
					stop()
					<-done
				}
			}()

			edges := a.Edges[:8]
			var body strings.Builder
			body.WriteString(`{"edges":[`)
			for i, e := range edges {
				if i > 0 {
					body.WriteByte(',')
				}
				fmt.Fprintf(&body, "[%d,%d]", e.Src, e.Dst)
			}
			body.WriteString(`]}`)
			half := body.Len() / 2

			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			fmt.Fprintf(conn, "POST /v1/edges HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s",
				addr, body.Len(), body.String()[:half])
			for batchRequestsStarted(t, addr) == 0 {
				time.Sleep(time.Millisecond)
			}

			if err := syscall.Kill(os.Getpid(), c.sig); err != nil {
				t.Fatal(err)
			}
			// The listener closes as the shutdown begins.
			for {
				probe, err := net.Dial("tcp", addr)
				if err != nil {
					break
				}
				probe.Close()
				time.Sleep(time.Millisecond)
			}
			if _, err := io.WriteString(conn, body.String()[half:]); err != nil {
				t.Fatal(err)
			}
			resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
			if err != nil {
				t.Fatalf("in-flight request cut by the shutdown: %v", err)
			}
			var out struct {
				Partitions []int32 `json:"partitions"`
			}
			err = json.NewDecoder(resp.Body).Decode(&out)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK || err != nil || len(out.Partitions) != len(edges) {
				t.Fatalf("in-flight request: status %d, %d partitions for %d edges (%v)", resp.StatusCode, len(out.Partitions), len(edges), err)
			}

			err = <-done
			finished = true
			if err != nil {
				t.Fatalf("run after %s = %v, want nil", c.name, err)
			}
			data, err := os.ReadFile(metricsOut)
			if err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(string(data)), "\n")
			var last metricsSnapshot
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatal(err)
			}
			if got := last.counter("serve.edges.requests"); got != 1 {
				t.Errorf("final snapshot counts %d batch requests, want 1", got)
			}
			if got := last.timerCount("serve.edges.latency"); got != 1 {
				t.Errorf("final snapshot times %d finished batch requests, want 1", got)
			}
		})
	}
}
