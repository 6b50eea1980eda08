package live

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// contendServer drives two clients into write-write conflict on the same
// page so lock waits, blocks, and callbacks all actually happen, with the
// WAL fsyncing per commit.
func contendServer(t *testing.T, srv *Server) {
	t.Helper()
	c1 := attachClient(t, srv)
	defer c1.Close()
	c2 := attachClient(t, srv)
	defer c2.Close()

	var wg sync.WaitGroup
	for i, cl := range []*Client{c1, c2} {
		i, cl := i, cl
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < 20; n++ {
				tx, err := cl.Begin()
				if err != nil {
					t.Errorf("Begin: %v", err)
					return
				}
				err = tx.Write(o(1, uint16(i)), []byte{byte(n)})
				if err == nil {
					err = tx.Write(o(2, 0), []byte{byte(n)}) // shared hot object
				}
				if err == nil {
					err = tx.Commit()
				}
				if err != nil && err != ErrAborted {
					t.Errorf("txn: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestServerMetricsUnderContention(t *testing.T) {
	dir := t.TempDir()
	srv, err := openServer(dir, ServerOptions{
		Proto: core.PSAA, PageSize: 256, ObjsPerPage: 4, NumPages: 32, SyncWAL: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Tracer().SetEnabled(true)
	contendServer(t, srv)

	reg := srv.Metrics()
	for _, name := range []string{
		`oodb_server_requests_total{kind="write"}`,
		`oodb_server_requests_total{kind="commit"}`,
		"oodb_engine_commits_total",
		"oodb_engine_write_requests_total",
		"oodb_wal_records_total",
		"oodb_wal_appended_bytes_total",
	} {
		if v := reg.CounterValue(name); v == 0 {
			t.Errorf("%s = 0, want > 0", name)
		}
	}
	if s := reg.HistogramSnapshot("oodb_wal_fsync_ns"); s.Count == 0 {
		t.Error("oodb_wal_fsync_ns empty despite SyncWAL")
	}
	if s := reg.HistogramSnapshot(`oodb_server_handle_ns{kind="commit"}`); s.Count == 0 {
		t.Error("commit handle latency histogram empty")
	}
	// Two writers on one hot object must have blocked at least once; the
	// lock-wait histograms split by granularity, so accept either.
	blocks := srv.Stats().Blocks
	pw := reg.HistogramSnapshot(`oodb_server_lock_wait_ns{granularity="page"}`)
	ow := reg.HistogramSnapshot(`oodb_server_lock_wait_ns{granularity="object"}`)
	if blocks > 0 && pw.Count+ow.Count == 0 {
		t.Errorf("engine blocked %d times but no lock-wait observations", blocks)
	}

	// Tracing was on: commits and lock requests must be in the ring.
	evs := srv.Tracer().Last(0)
	if len(evs) == 0 {
		t.Fatal("tracer captured nothing")
	}
	kinds := map[obs.EventKind]bool{}
	for _, e := range evs {
		kinds[e.Kind] = true
	}
	for _, k := range []obs.EventKind{obs.EvBegin, obs.EvLockReq, obs.EvCommit} {
		if !kinds[k] {
			t.Errorf("no %v event traced", k)
		}
	}

	// Checkpoint instrumentation.
	if err := srv.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if v := reg.CounterValue("oodb_checkpoints_total"); v != 1 {
		t.Errorf("checkpoints = %d, want 1", v)
	}
	if v := reg.CounterValue("oodb_store_flush_pages_total"); v == 0 {
		t.Error("no flushed pages counted")
	}
}

func TestClientMetrics(t *testing.T) {
	srv, _ := testServer(t, core.PSAA)
	defer srv.Close()

	reg := obs.NewRegistry()
	cEnd, sEnd := Pipe()
	if _, err := srv.Attach(sEnd); err != nil {
		t.Fatal(err)
	}
	cl, err := Connect(cEnd, ClientOptions{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	tx, err := cl.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Read(o(1, 0)); err != nil { // miss: cold cache
		t.Fatal(err)
	}
	if _, err := tx.Read(o(1, 1)); err != nil { // hit: same page
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	if v := reg.CounterValue(`oodb_client_cache_misses_total{kind="page"}`); v == 0 {
		t.Error("no cache misses counted")
	}
	if v := reg.CounterValue(`oodb_client_cache_hits_total{kind="page"}`); v == 0 {
		t.Error("no cache hits counted")
	}
	if v := reg.CounterValue("oodb_client_commits_total"); v != 1 {
		t.Errorf("commits = %d, want 1", v)
	}
	if s := reg.HistogramSnapshot("oodb_client_request_rtt_ns"); s.Count == 0 {
		t.Error("rtt histogram empty")
	}
}

func TestAdminEndpoint(t *testing.T) {
	dir := t.TempDir()
	srv, err := openServer(dir, ServerOptions{
		Proto: core.PSAA, PageSize: 256, ObjsPerPage: 4, NumPages: 32, SyncWAL: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	attached := srv.Sessions() // the planner's, if any
	srv.Tracer().SetEnabled(true)
	contendServer(t, srv)

	admin, err := ServeAdmin(srv, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()
	base := "http://" + admin.Addr()

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	metrics := get("/metrics")
	// Valid exposition format: every non-comment line is "name[{labels}] value".
	for _, line := range strings.Split(strings.TrimRight(metrics, "\n"), "\n") {
		if strings.HasPrefix(line, "#") || line == "" {
			continue
		}
		if fields := strings.Fields(line); len(fields) != 2 {
			t.Errorf("malformed metrics line %q", line)
		}
	}
	for _, want := range []string{
		"# TYPE oodb_engine_commits_total counter",
		"# TYPE oodb_wal_fsync_ns histogram",
		`oodb_wal_fsync_ns_bucket{le="+Inf"}`,
		fmt.Sprintf("oodb_server_sessions %d", attached), // both test clients disconnected already
		`oodb_server_requests_total{kind="commit"}`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// The fsync histogram must be non-empty under commit load.
	if strings.Contains(metrics, "oodb_wal_fsync_ns_count 0") {
		t.Error("/metrics shows empty fsync histogram under load")
	}

	statusz := get("/statusz")
	for _, want := range []string{"protocol:", "engine:", "commits="} {
		if !strings.Contains(statusz, want) {
			t.Errorf("/statusz missing %q:\n%s", want, statusz)
		}
	}

	tr := get("/trace?n=10")
	lines := strings.Split(strings.TrimRight(tr, "\n"), "\n")
	if len(lines) == 0 || lines[0] == "" {
		t.Fatal("/trace returned nothing")
	}
	if len(lines) > 10 {
		t.Errorf("/trace?n=10 returned %d lines", len(lines))
	}
	for _, l := range lines {
		if !strings.HasPrefix(l, `{"seq":`) {
			t.Errorf("bad trace line %q", l)
		}
	}

	// Runtime trace toggling.
	get("/trace/off")
	if srv.Tracer().Enabled() {
		t.Error("/trace/off did not disable tracing")
	}
	get("/trace/on")
	if !srv.Tracer().Enabled() {
		t.Error("/trace/on did not enable tracing")
	}

	// pprof endpoints respond.
	if pp := get("/debug/pprof/cmdline"); pp == "" {
		t.Error("pprof cmdline empty")
	}
	resp, err := http.Get(fmt.Sprintf("%s/debug/pprof/profile?seconds=1", base))
	if err != nil {
		t.Fatal(err)
	}
	prof, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || len(prof) == 0 {
		t.Errorf("pprof profile: status %d, %d bytes", resp.StatusCode, len(prof))
	}
}

// TestAdminTraceQueryValidated: /trace answers 400 to a number it cannot
// parse instead of reading it as 0 (page 0 is a real page; txn 0 and n 0
// mean no filter, which would return the unfiltered ring).
func TestAdminTraceQueryValidated(t *testing.T) {
	srv, _ := testServer(t, core.PSAA)
	defer srv.Close()
	h := AdminHandler(srv)
	for _, tc := range []struct {
		query string
		want  int
	}{
		{"", http.StatusOK},
		{"?n=5&txn=7&page=1", http.StatusOK},
		{"?page=x", http.StatusBadRequest},
		{"?page=4294967296", http.StatusBadRequest},
		{"?txn=1e3", http.StatusBadRequest},
		{"?n=ten", http.StatusBadRequest},
		{"?n=-1", http.StatusBadRequest},
		{"?n=5&page=", http.StatusOK},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/trace"+tc.query, nil))
		if rec.Code != tc.want {
			t.Errorf("GET /trace%s: status %d, want %d (%s)", tc.query, rec.Code, tc.want, rec.Body)
		}
	}
}

// TestGaugesCollectWithoutDeadlock exercises concurrent collection while
// the data path is busy (the gauges take s.mu).
func TestGaugesCollectWithoutDeadlock(t *testing.T) {
	srv, _ := testServer(t, core.PSAA)
	defer srv.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		contendServer(t, srv)
	}()
	deadline := time.After(10 * time.Second)
	for {
		select {
		case <-done:
			return
		case <-deadline:
			t.Fatal("collection deadlocked against the data path")
		default:
		}
		var sb strings.Builder
		if err := srv.Metrics().WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
}
