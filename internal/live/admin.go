package live

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"repro/internal/obs"
)

// AdminHandler serves the server's observability surface:
//
//	/metrics              Prometheus text exposition of the registry
//	/statusz              one-page human-readable server status
//	/trace?n=&txn=&page=  last n trace events as JSONL (txn/page filter)
//	/trace/on, /trace/off  switch event tracing at runtime
//	/heatz?format=json    heat snapshot: top-K hot pages/objects, contended
//	                      pages, false-sharing suspects (human by default)
//	/heatz/on, /heatz/off  switch heat collection at runtime
//	/spanz?format=json    commit-stage latency spans with p99 exemplar txns
//	/reclusterz?format=json  online-reclustering status: geometry split and
//	                      the relocation table; ?run=1 triggers one round
//	/debug/pprof/*        the standard Go profiling endpoints
//
// The handlers collect metrics without the server lock, so serving
// traffic never stalls the data path.
func AdminHandler(s *Server) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.registry.WritePrometheus(w)
	})
	mux.HandleFunc("/statusz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		pages, opp, objSize := s.Geometry()
		st := s.Stats()
		fmt.Fprintf(w, "oodbserver status @ %s\n\n", time.Now().Format(time.RFC3339))
		fmt.Fprintf(w, "protocol:  %v\n", s.Proto())
		fmt.Fprintf(w, "geometry:  %d pages x %d objs x %d B\n", pages, opp, objSize)
		fmt.Fprintf(w, "sessions:  %d\n", s.Sessions())
		fmt.Fprintf(w, "tracing:   enabled=%v dropped=%d ring=%d\n", s.tracer.Enabled(), s.tracer.Dropped(), obs.DefaultTraceBuf)
		fmt.Fprintf(w, "heat:      enabled=%v epochs=%d dropped=%d\n", s.heat.Enabled(), s.heat.Epochs(), s.heat.Dropped())
		if s.flight != nil {
			fmt.Fprintf(w, "blackbox:  %s\n", s.flight.Dir())
		}
		fmt.Fprintf(w, "endpoints: /metrics | /statusz | /trace?n=<count>&txn=<id>&page=<id> (+/trace/on,/trace/off)\n")
		fmt.Fprintf(w, "           /heatz?format=json (+/heatz/on,/heatz/off) | /spanz?format=json | /reclusterz | /debug/pprof/*\n\n")
		fmt.Fprintf(w, "engine: reads=%d writes=%d commits=%d aborts=%d blocks=%d deadlocks=%d\n",
			st.ReadReqs, st.WriteReqs, st.Commits, st.Aborts, st.Blocks, st.Deadlocks)
		fmt.Fprintf(w, "        rounds=%d callbacks=%d busy=%d deesc=%d pageX=%d objX=%d\n\n",
			st.Rounds, st.Callbacks, st.BusyReplies, st.Deescalations, st.PageGrants, st.ObjGrants)
		s.registry.WriteHuman(w)
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		// A malformed number is refused, not read as 0: a 0 page is a real
		// page, and a 0 txn or n means "no filter".
		q := r.URL.Query()
		var bad string
		num := func(key string, bits int) int64 {
			v := q.Get(key)
			if v == "" {
				return 0
			}
			x, err := strconv.ParseInt(v, 10, bits)
			if err != nil || (key == "n" && x < 0) {
				bad = fmt.Sprintf("/trace: bad %s=%q", key, v)
			}
			return x
		}
		n, txn, page := int(num("n", 32)), num("txn", 64), num("page", 32)
		if bad != "" {
			http.Error(w, bad, http.StatusBadRequest)
			return
		}
		hasPage := q.Get("page") != ""
		var filter func(*obs.Event) bool
		if txn != 0 || hasPage {
			filter = func(e *obs.Event) bool {
				return (txn == 0 || e.Txn == txn) && (!hasPage || e.Page == int32(page))
			}
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		s.tracer.WriteJSONLFiltered(w, n, filter)
	})
	mux.HandleFunc("/trace/on", func(w http.ResponseWriter, r *http.Request) {
		s.tracer.SetEnabled(true)
		fmt.Fprintln(w, "tracing on")
	})
	mux.HandleFunc("/trace/off", func(w http.ResponseWriter, r *http.Request) {
		s.tracer.SetEnabled(false)
		fmt.Fprintln(w, "tracing off")
	})
	mux.HandleFunc("/heatz", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json")
			s.heat.WriteJSON(w)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		s.heat.WriteHuman(w)
	})
	mux.HandleFunc("/heatz/on", func(w http.ResponseWriter, r *http.Request) {
		s.heat.SetEnabled(true)
		fmt.Fprintln(w, "heat collection on")
	})
	mux.HandleFunc("/heatz/off", func(w http.ResponseWriter, r *http.Request) {
		s.heat.SetEnabled(false)
		fmt.Fprintln(w, "heat collection off")
	})
	mux.HandleFunc("/reclusterz", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("run") == "1" {
			moved, err := s.ReclusterNow()
			if err != nil {
				http.Error(w, err.Error(), http.StatusConflict)
				return
			}
			fmt.Fprintf(w, "recluster round complete: %d objects moved\n", moved)
			return
		}
		st := s.ReclusterStatus(true)
		if r.URL.Query().Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(st)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "online reclustering: enabled=%v\n", st.Enabled)
		fmt.Fprintf(w, "geometry: %d user pages + %d spare\n", st.UserPages, st.SparePages)
		fmt.Fprintf(w, "relocations: %d live entries\n", st.Relocated)
		max := 64
		for i, e := range st.Entries {
			if i >= max {
				fmt.Fprintf(w, "  ... %d more\n", len(st.Entries)-max)
				break
			}
			fmt.Fprintf(w, "  (%d,%d) -> (%d,%d)\n", e.From.Page, e.From.Slot, e.To.Page, e.To.Slot)
		}
		fmt.Fprintf(w, "trigger a round: /reclusterz?run=1\n")
	})
	mux.HandleFunc("/spanz", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json")
			s.spans.WriteJSON(w)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		s.spans.WriteHuman(w)
	})
	// pprof on a private mux: registering on http.DefaultServeMux would
	// leak the profiler onto any other server in the process.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// AdminServer is a running admin HTTP endpoint.
type AdminServer struct {
	ln  net.Listener
	srv *http.Server
}

// ServeAdmin starts the admin endpoint on addr (e.g. ":6060") and serves
// until Close. It returns once the listener is bound, so the caller can
// read Addr immediately.
func ServeAdmin(s *Server, addr string) (*AdminServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	a := &AdminServer{ln: ln, srv: &http.Server{Handler: AdminHandler(s)}}
	go a.srv.Serve(ln)
	return a, nil
}

// Addr returns the bound listen address.
func (a *AdminServer) Addr() string { return a.ln.Addr().String() }

// Close stops the admin endpoint.
func (a *AdminServer) Close() error { return a.srv.Close() }
