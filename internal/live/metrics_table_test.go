package live

import (
	"bufio"
	"errors"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// coveredElsewhere names, for each family the scripted run below cannot
// move, the test function (or table-driven case) that does, and what it
// reads to check it: the family's name, or the engine statistic
// RegisterMetrics publishes under it.
var coveredElsewhere = map[string]struct{ file, test, reads string }{
	"oodb_engine_token_waits_total":           {"../core/pswt_test.go", "TestPSWTSerializesPageUpdaters", "Stats.TokenWaits"},
	"oodb_server_lease_expiries_total":        {"reactor_test.go", "TestTCPLoneRequesterNeverReadsDeposed", "oodb_server_lease_expiries_total"},
	"oodb_live_outbox_deposes_total":          {"session_test.go", "sessionOutboxOverflow", "oodb_live_outbox_deposes_total"},
	"oodb_live_reactor_deposes_total":         {"session_test.go", "sessionOutboxOverflow", "oodb_live_reactor_deposes_total"},
	"oodb_live_recovery_pages_replayed_total": {"waledge_test.go", "TestScanWALSkipsLegacyWatermark", "oodb_live_recovery_pages_replayed_total"},
}

// TestMetricsTableMatchesRegistry holds README's "Metrics" table and the
// registry to each other. After a scripted run that touches every layer
// (heat and reclustering on, one pipe and one TCP client,
// conflicts, a deadlock, an abort, a migration, a checkpoint) the
// registry must hold exactly the table's families, with the table's type
// and label keys, and each family must have moved, or coveredElsewhere
// must name the test that moves it.
func TestMetricsTableMatchesRegistry(t *testing.T) {
	table := readMetricsTable(t, "../../README.md")
	reg := obs.NewRegistry()
	srv := scriptedRun(t, reg)
	defer srv.Close()

	var out strings.Builder
	if err := reg.WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	got := parseExposition(t, out.String())

	for fam, f := range got {
		row, ok := table[fam]
		if !ok {
			t.Errorf("the registry holds %s, which README's metrics table lacks", fam)
			continue
		}
		if row.typ != f.typ {
			t.Errorf("%s: README says %s, the registry %s", fam, row.typ, f.typ)
		}
		if labels := strings.Join(f.labelKeys(), ","); row.labels != labels {
			t.Errorf("%s: README gives labels %q, the registry %q", fam, row.labels, labels)
		}
	}
	for fam := range table {
		f, ok := got[fam]
		switch {
		case !ok:
			t.Errorf("README's metrics table names %s, which the registry lacks", fam)
		case f.moved:
		default:
			c, ok := coveredElsewhere[fam]
			if !ok {
				t.Errorf("%s did not move in the scripted run and no test is named for it", fam)
				continue
			}
			if body := testBody(t, c.file, c.test); !strings.Contains(body, c.reads) {
				t.Errorf("%s: %s in %s does not read %s", fam, c.test, c.file, c.reads)
			}
		}
	}
}

// scriptedRun opens a server publishing on reg and drives it through
// every path the table's families observe. It returns with both clients
// still attached.
func scriptedRun(t *testing.T, reg *obs.Registry) *Server {
	t.Helper()
	const numPages = 32
	srv, err := OpenServer(t.TempDir(), ServerOptions{
		Proto: core.PSAA, PageSize: 256, ObjsPerPage: 4, NumPages: numPages,
		SyncWAL: true, Metrics: reg, Heat: true, heatEpoch: time.Hour,
		Recluster: true, reclusterEvery: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	go srv.ListenAndServe("127.0.0.1:0")
	waitFor(t, "the TCP listener", func() bool { return srv.Addr() != "" })
	cEnd, sEnd := Pipe()
	if _, err := srv.Attach(sEnd); err != nil {
		t.Fatal(err)
	}
	a, err := Connect(cEnd, ClientOptions{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	conn, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Connect(conn, ClientOptions{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	val := []byte("v")
	begin := func(cl *Client) *Txn {
		t.Helper()
		tx, err := cl.Begin()
		if err != nil {
			t.Fatal(err)
		}
		return tx
	}
	write := func(tx *Txn, objs ...core.ObjID) {
		t.Helper()
		for _, obj := range objs {
			if err := tx.Write(obj, val); err != nil {
				t.Fatal(err)
			}
		}
	}
	commit := func(tx *Txn) {
		t.Helper()
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	// async runs one write on its own goroutine: it is expected to block.
	async := func(tx *Txn, obj core.ObjID) <-chan error {
		done := make(chan error, 1)
		go func() { done <- tx.Write(obj, val) }()
		return done
	}
	recv := func(done <-chan error) error {
		t.Helper()
		select {
		case err := <-done:
			return err
		case <-timeoutChan(t):
			t.Fatal("a blocked write never finished")
			return nil
		}
	}
	blocked := func(n int64) func() bool { return func() bool { return srv.Stats().Blocks >= n } }

	// A miss, a hit, and one commit across two pages.
	p, q := core.PageID(0), core.PageID(1)
	tx := begin(a)
	if _, err := tx.Read(o(p, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Read(o(p, 1)); err != nil {
		t.Fatal(err)
	}
	write(tx, o(p, 0), o(q, 0))
	commit(tx)

	// False sharing: the clients write disjoint halves of pages 8 and 9,
	// calling back each other's copies; a heat rotation and a reclustering
	// round then move one writer's half away. A write to a moved object's
	// old address is redirected.
	for round := 0; round < 10; round++ {
		for _, pg := range []core.PageID{8, 9} {
			tx := begin(a)
			write(tx, o(pg, 0), o(pg, 1))
			commit(tx)
			tx = begin(b)
			write(tx, o(pg, 2), o(pg, 3))
			commit(tx)
		}
	}
	srv.Heat().Rotate()
	if _, err := srv.ReclusterNow(); err != nil {
		t.Fatal(err)
	}
	if st := srv.ReclusterStatus(true); len(st.Entries) > 0 {
		tx := begin(b)
		write(tx, st.Entries[0].From)
		commit(tx)
	}

	// De-escalation, an object grant, a busy callback reply and a lock
	// wait: a holds page 12 when b writes another object of it, then b
	// waits for a's object.
	txA, txB := begin(a), begin(b)
	write(txA, o(12, 0))
	write(txB, o(12, 1))
	n := srv.Stats().Blocks + 1
	done := async(txB, o(12, 0))
	waitFor(t, "b to block behind a", blocked(n))
	commit(txA)
	if err := recv(done); err != nil {
		t.Fatal(err)
	}
	commit(txB)

	// A deadlock: each client holds a page the other then asks for.
	u, v := core.PageID(13), core.PageID(14)
	txA, txB = begin(a), begin(b)
	write(txA, o(u, 0))
	write(txB, o(v, 0))
	n = srv.Stats().Blocks + 1
	doneA := async(txA, o(v, 0))
	waitFor(t, "a to block behind b", blocked(n))
	doneB := async(txB, o(u, 0))
	for _, w := range []struct {
		tx   *Txn
		done <-chan error
	}{{txA, doneA}, {txB, doneB}} {
		switch err := recv(w.done); {
		case err == nil:
			commit(w.tx)
		case !errors.Is(err, ErrAborted):
			t.Fatal(err)
		}
	}

	// A voluntary abort, then a checkpoint.
	tx = begin(a)
	write(tx, o(20, 0))
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	return srv
}

// metricsRow is one row of README's metrics table.
type metricsRow struct{ typ, labels string }

// readMetricsTable parses the table under README's "### Metrics" heading:
// family -> type and comma-joined label keys.
func readMetricsTable(t *testing.T, path string) map[string]metricsRow {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows := map[string]metricsRow{}
	inSection := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			inSection = line == "### Metrics"
			continue
		}
		if !inSection || !strings.HasPrefix(line, "| `") {
			continue
		}
		cells := strings.Split(line, "|")
		if len(cells) != 7 {
			t.Fatalf("%s: metrics row %q does not have 5 cells", path, line)
		}
		fam := strings.Trim(strings.TrimSpace(cells[1]), "`")
		if _, dup := rows[fam]; dup {
			t.Errorf("%s: %s has two rows", path, fam)
		}
		rows[fam] = metricsRow{typ: strings.TrimSpace(cells[2]), labels: strings.ReplaceAll(strings.TrimSpace(cells[3]), " ", "")}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatalf("%s has no metrics table under ### Metrics", path)
	}
	return rows
}

// metricFamily is one metric family as the Prometheus exposition shows it.
type metricFamily struct {
	typ    string
	labels map[string]bool
	moved  bool // a counter or gauge series is non-zero, or a histogram observed
}

func (f *metricFamily) labelKeys() []string {
	var keys []string
	for k := range f.labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

var (
	sampleLine = regexp.MustCompile(`^([a-z0-9_]+)(?:\{(.*)\})? (-?\d+)$`)
	labelKey   = regexp.MustCompile(`([a-z_]+)="`)
)

// parseExposition reads WritePrometheus output into families.
func parseExposition(t *testing.T, text string) map[string]*metricFamily {
	t.Helper()
	fams := map[string]*metricFamily{}
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			fams[f[2]] = &metricFamily{typ: f[3], labels: map[string]bool{}}
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		m := sampleLine.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("unparseable exposition line %q", line)
		}
		name, suffix := m[1], ""
		fam := fams[name]
		if fam == nil {
			for _, s := range []string{"_bucket", "_sum", "_count"} {
				if f := fams[strings.TrimSuffix(name, s)]; f != nil && strings.HasSuffix(name, s) {
					fam, suffix = f, s
				}
			}
		}
		if fam == nil {
			t.Fatalf("sample %q precedes its TYPE line", line)
		}
		for _, k := range labelKey.FindAllStringSubmatch(m[2], -1) {
			if k[1] != "le" {
				fam.labels[k[1]] = true
			}
		}
		v, _ := strconv.ParseInt(m[3], 10, 64)
		if v != 0 && (fam.typ != "histogram" || suffix == "_count") {
			fam.moved = true
		}
	}
	return fams
}

// testBody returns the source of function name in file (relative to this
// package), failing if the file does not declare it.
func testBody(t *testing.T, file, name string) string {
	t.Helper()
	src, err := os.ReadFile(filepath.FromSlash(file))
	if err != nil {
		t.Fatal(err)
	}
	text := string(src)
	i := strings.Index(text, "\nfunc "+name+"(")
	if i < 0 {
		t.Fatalf("%s declares no %s", file, name)
	}
	body := text[i+1:]
	if end := strings.Index(body, "\n}\n"); end >= 0 {
		body = body[:end]
	}
	return body
}
