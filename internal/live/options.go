package live

import (
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// ServerOptions configures a live server.
type ServerOptions struct {
	Proto       core.Protocol
	PageSize    int // default 4096
	ObjsPerPage int // default 20
	NumPages    int // default 1250
	// Deprecated: ignored. The server runs one engine under one lock
	// (DESIGN.md §13); the field stays only until the benchmark driver
	// stops setting it.
	Shards int
	// SyncWAL forces commits to wait for a WAL fsync before acking
	// (default true; tests disable it).
	SyncWAL bool
	// outboxLimit caps a session's staged outbound messages. A client
	// that stops draining its connection while callbacks and grants keep
	// arriving would otherwise grow server memory without bound; at the
	// cap the server deposes the session (disconnects it through the
	// normal departure path). 0 means the default (4096); negative
	// disables the cap. Only this package's tests override it.
	outboxLimit int
	// CallbackTimeout bounds how long a client may sit on an outstanding
	// callback (including the deferred ack after a busy reply), or leave
	// the server parked in one write to it, before the server declares it
	// dead and disconnects it, so one silent client cannot stall every
	// writer of a page. 0 disables the deadline.
	CallbackTimeout time.Duration
	// Metrics, when set, is the registry the server publishes on; pass a
	// shared registry to aggregate several processes (e.g. oodbbench runs
	// server and clients in one registry). Nil: the server makes its own,
	// reachable via Server.Metrics().
	Metrics *obs.Registry
	// Heat starts the access-heat/contention collector enabled (it can
	// also be switched at runtime via Server.Heat() or the admin
	// /heatz/on|/heatz/off endpoints). Disabled, the collector costs one
	// atomic load per engine event.
	Heat bool
	// BlackboxDir, when set, enables the flight recorder: on a serve-path
	// panic or an injected fail-stop the server dumps its trace ring, heat
	// snapshot, commit-stage spans, and metrics to a timestamped JSONL
	// file in this directory (see obs.FlightRecorder), keeping the newest
	// obs.DefaultBlackboxMax.
	BlackboxDir string
	// Recluster enables online reclustering: the store is created with a
	// spare-page region past the user-visible geometry (NumPages/8
	// pages, clamped to [4, 256]), and a background planner consumes heat
	// snapshots and migrates objects off false-sharing pages into
	// (near-)private spare pages via system transactions. Implies Heat.
	// On a pre-existing store created without reclustering there is no
	// spare region, so the planner stays inert.
	Recluster bool
	// Transport selects what drives the session machine behind each
	// accepted TCP socket: TransportGoroutine (the default) parks two
	// goroutines per session on the blocking connection (reader + pump);
	// TransportReactor multiplexes every
	// session onto a small set of epoll event loops — O(loops) goroutines
	// regardless of the session count, which is what lets one server hold
	// 10k-100k sessions, at roughly twice the per-request latency when
	// few clients are connected (DESIGN.md §17; why it is not the
	// default). On platforms without epoll the reactor falls back to the
	// goroutine transport at listen time. In-process (Pipe) sessions use
	// the goroutine driver either way.
	Transport string
	// Test-only knobs: the package's tests shorten or lengthen these;
	// defaults() gives every other caller the one value in use.
	//
	// heatEpoch is the heat collector's rotation period (sketch decay +
	// false-sharing score fold); default 10s.
	heatEpoch time.Duration
	// reclusterEvery is the planner's polling period (default 2s).
	reclusterEvery time.Duration
	// reactorLoops is the reactor's event-loop worker count
	// (default min(8, GOMAXPROCS)).
	reactorLoops int
	// reactorDrainCap caps one reactor connection's pending outbound
	// bytes. A client that stops reading while grants and callbacks keep
	// coalescing into its queue is deposed at the cap instead of growing
	// server memory without bound — the byte-level analogue of the
	// session outbox limit. 0 means the default (8 MiB); negative disables
	// the cap.
	reactorDrainCap int
}

// Transport values for ServerOptions.Transport.
const (
	TransportGoroutine = "goroutine"
	TransportReactor   = "reactor"
)

func (o *ServerOptions) defaults() {
	if o.PageSize == 0 {
		o.PageSize = 4096
	}
	if o.ObjsPerPage == 0 {
		o.ObjsPerPage = 20
	}
	if o.NumPages == 0 {
		o.NumPages = 1250
	}
	if o.outboxLimit == 0 {
		o.outboxLimit = 4096
	}
	if o.heatEpoch <= 0 {
		o.heatEpoch = 10 * time.Second
	}
	if o.Transport == "" {
		o.Transport = TransportGoroutine
	}
	if o.reactorLoops <= 0 {
		o.reactorLoops = runtime.GOMAXPROCS(0)
		if o.reactorLoops > 8 {
			o.reactorLoops = 8
		}
	}
	if o.reactorDrainCap == 0 {
		o.reactorDrainCap = 8 << 20
	}
	if o.Recluster {
		o.Heat = true // the planner is blind without the collector
		if o.reclusterEvery <= 0 {
			o.reclusterEvery = 2 * time.Second
		}
	}
}
