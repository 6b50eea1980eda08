package live

import (
	"bufio"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
)

// TestBlackboxOnInjectedFailStop arms a WAL crash point, drives commits
// into it, and checks the fail-stop left a parseable blackbox behind: a
// header naming the cause plus trace, heat, spans, and metrics sections.
func TestBlackboxOnInjectedFailStop(t *testing.T) {
	dir := t.TempDir()
	bbDir := filepath.Join(dir, "blackbox")
	srv, err := openServer(filepath.Join(dir, "db"), ServerOptions{
		Proto: core.PSAA, PageSize: 256, ObjsPerPage: 4, NumPages: 16,
		SyncWAL: true, Heat: true, BlackboxDir: bbDir,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Tracer().SetEnabled(true)
	cl := attachClient(t, srv)
	defer fault.DisarmAll()

	fault.Get("wal.append.pre-sync").Arm(3)
	crashed := false
	for n := 0; n < 32 && !crashed; n++ {
		tx, err := cl.Begin()
		if err == nil {
			if err = tx.Write(o(core.PageID(n%16), 0), []byte{byte(n)}); err == nil {
				err = tx.Commit()
			}
		}
		if errors.Is(err, ErrClosed) || errors.Is(err, ErrDisconnected) {
			crashed = true
		} else if err != nil && err != ErrAborted {
			t.Fatalf("commit %d: %v", n, err)
		}
		if srv.Failed() != nil {
			crashed = true
		}
	}
	if !crashed {
		t.Fatal("injected crash point never fired")
	}
	cl.Close()
	srv.Crash()
	fault.DisarmAll()

	matches, err := filepath.Glob(filepath.Join(bbDir, "blackbox-*.jsonl"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("want exactly one blackbox dump, got %v (err %v)", matches, err)
	}
	f, err := os.Open(matches[0])
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	types := map[string]int{}
	var reason string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var line map[string]any
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("unparseable blackbox line %q: %v", sc.Text(), err)
		}
		typ, _ := line["type"].(string)
		types[typ]++
		if typ == "header" {
			reason, _ = line["reason"].(string)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"header", "trace", "heat", "spans", "metrics"} {
		if types[want] == 0 {
			t.Errorf("blackbox missing %q section (got %v)", want, types)
		}
	}
	if !strings.Contains(reason, "fail-stop") || !strings.Contains(reason, "injected crash") {
		t.Errorf("header reason %q does not name the injected fail-stop", reason)
	}
}

// TestHeatLiveEndToEnd drives a contended live workload with the heat
// collector on and checks the full surface: snapshot contents, the
// /heatz and /spanz endpoints, the page= trace filter, and a manual
// flight dump (the chaos-audit hook).
func TestHeatLiveEndToEnd(t *testing.T) {
	dir := t.TempDir()
	srv, err := openServer(filepath.Join(dir, "db"), ServerOptions{
		Proto: core.PSAA, PageSize: 256, ObjsPerPage: 4, NumPages: 32,
		SyncWAL: true, Heat: true, BlackboxDir: filepath.Join(dir, "blackbox"),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Tracer().SetEnabled(true)
	contendServer(t, srv)

	sn := srv.Heat().Snapshot()
	if !sn.Enabled || sn.Reads+sn.Writes == 0 {
		t.Fatalf("heat collector idle under load: %+v", sn)
	}
	hot := map[int32]bool{}
	for _, e := range sn.TopPages {
		hot[e.Page] = true
	}
	// contendServer hammers pages 1 and 2; both must rank.
	if !hot[1] || !hot[2] {
		t.Fatalf("top pages %v missing the contended pages 1,2", sn.TopPages)
	}
	if len(sn.Contended) == 0 {
		t.Error("no contended pages despite write-write conflicts")
	}

	// Commit-stage spans saw every commit, and stages carry exemplars.
	spans := srv.Spans().Snapshot()
	for _, s := range spans.Stages {
		if s.Count == 0 {
			t.Errorf("stage %q recorded nothing", s.Stage)
		}
	}

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

	if h := get("/heatz"); !strings.Contains(h, "top pages") {
		t.Errorf("/heatz human form:\n%s", h)
	}
	var heatJSON struct {
		TopPages []struct {
			Page int32 `json:"page"`
		} `json:"top_pages"`
	}
	if err := json.Unmarshal([]byte(get("/heatz?format=json")), &heatJSON); err != nil {
		t.Fatalf("/heatz json: %v", err)
	}
	if len(heatJSON.TopPages) == 0 {
		t.Error("/heatz json has no top pages")
	}
	var spanJSON struct {
		Stages []struct {
			Stage string `json:"stage"`
			Count int64  `json:"count"`
		} `json:"stages"`
	}
	if err := json.Unmarshal([]byte(get("/spanz?format=json")), &spanJSON); err != nil {
		t.Fatalf("/spanz json: %v", err)
	}
	if len(spanJSON.Stages) != 7 {
		t.Errorf("/spanz stages = %d, want 7", len(spanJSON.Stages))
	}
	if sp := get("/spanz"); !strings.Contains(sp, "fsync-wait") {
		t.Errorf("/spanz human form:\n%s", sp)
	}

	// Runtime heat toggling round-trips.
	get("/heatz/off")
	if srv.Heat().Enabled() {
		t.Error("/heatz/off did not disable collection")
	}
	get("/heatz/on")
	if !srv.Heat().Enabled() {
		t.Error("/heatz/on did not enable collection")
	}

	// page= filter: every returned event names page 2.
	for _, line := range strings.Split(strings.TrimRight(get("/trace?page=2&n=50"), "\n"), "\n") {
		if line == "" {
			continue
		}
		var ev struct {
			Page int32 `json:"page"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("trace line %q: %v", line, err)
		}
		if ev.Page != 2 {
			t.Fatalf("page filter leaked event %q", line)
		}
	}

	// /statusz reports the heat and blackbox state.
	statusz := get("/statusz")
	for _, want := range []string{"heat:", "blackbox:", "endpoints:"} {
		if !strings.Contains(statusz, want) {
			t.Errorf("/statusz missing %q", want)
		}
	}

	// Manual flight dump (what the chaos audit failure path calls).
	path, err := srv.FlightDump("manual: audit hook test")
	if err != nil || path == "" {
		t.Fatalf("FlightDump: %q, %v", path, err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"reason":"manual: audit hook test"`) {
		t.Error("manual dump lost its reason")
	}
}
