// Package repro is a reproduction of "Fine-Grained Sharing in a Page
// Server OODBMS" (Carey, Franklin, Zaharioudakis; SIGMOD 1994): a
// data-shipping client-server object database supporting all five
// granularity protocols the paper studies — the basic page server (PS),
// the basic object server (OS), and the three hybrid page servers with
// object-level sharing (PS-OO, PS-OA, and the adaptive PS-AA the paper
// recommends), plus the write-token variant of the paper's Section 6.1
// (PS-WT) — and the discrete-event simulation study that reproduces the
// paper's evaluation.
//
// This root package is the public facade. It re-exports the identifier
// and protocol types, provides a convenience in-process Cluster around the
// live system (internal/live), and exposes the simulation entry points
// (internal/model, internal/workload, internal/experiments).
//
// Quick start:
//
//	cluster, _ := repro.NewCluster(dir, repro.ClusterOptions{Proto: repro.PSAA, Clients: 2})
//	defer cluster.Close()
//	tx, _ := cluster.Client(0).Begin()
//	tx.Write(repro.Obj(3, 7), []byte("hello"))
//	tx.Commit()
package repro

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/live"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/workload"
)

// Protocol selects a granularity alternative; see the paper's Section 3.
type Protocol = core.Protocol

// The five protocols, in the paper's presentation order.
const (
	PS   = core.PS   // page transfer, page locking, page callbacks
	OS   = core.OS   // object granularity throughout
	PSOO = core.PSOO // page transfer, object locking, object callbacks
	PSOA = core.PSOA // page transfer, object locking, adaptive callbacks
	PSAA = core.PSAA // page transfer, adaptive locking, adaptive callbacks
	PSWT = core.PSWT // write-token variant: object locks, one updater per page (Section 6.1)
)

// ObjID names an object by home page and slot.
type ObjID = core.ObjID

// PageID names a physical page.
type PageID = core.PageID

// Obj builds an ObjID.
func Obj(page PageID, slot uint16) ObjID { return ObjID{Page: page, Slot: slot} }

// ErrAborted is returned when a transaction lost a deadlock and must be
// retried.
var ErrAborted = live.ErrAborted

// ErrTimeout is returned when a request exceeds the configured
// RequestTimeout. A Commit returning ErrTimeout has UNKNOWN outcome: the
// server may or may not have committed before the deadline.
var ErrTimeout = live.ErrTimeout

// ErrDisconnected is returned for operations whose transaction was aborted
// locally because the connection was lost. As with ErrTimeout, a Commit
// already in flight at disconnect time has unknown outcome.
var ErrDisconnected = live.ErrDisconnected

// Server is the live page-server DBMS process.
type Server = live.Server

// Client is a live client workstation handle.
type Client = live.Client

// Txn is a live transaction.
type Txn = live.Txn

// ServerOptions configures a standalone live server.
type ServerOptions = live.ServerOptions

// ClientOptions configures a live client (cache size, request deadline,
// reconnect policy).
type ClientOptions = live.ClientOptions

// RetryPolicy shapes dial/reconnect backoff.
type RetryPolicy = live.RetryPolicy

// Conn is the client<->server transport interface.
type Conn = live.Conn

// MetricsRegistry is the process-wide metrics registry type (see
// internal/obs): atomic counters, gauges, and log-bucketed latency
// histograms with Prometheus text exposition.
type MetricsRegistry = obs.Registry

// Tracer is the structured protocol-event tracer (see internal/obs).
type Tracer = obs.Tracer

// Heat is the sharded heat/contention collector (see internal/obs): top-K
// access sketches over pages and objects plus a windowed false-sharing
// detector. Reach it via Server.Heat or ClusterOptions.Heat.
type Heat = obs.Heat

// NewMetricsRegistry returns an empty registry, e.g. to share between a
// server and its clients so one scrape covers both sides.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// ServeAdmin starts the observability HTTP endpoint for srv on addr
// (/metrics, /statusz, /trace, /heatz, /spanz, /debug/pprof/*). Close the
// returned handle to stop it.
func ServeAdmin(srv *Server, addr string) (*live.AdminServer, error) {
	return live.ServeAdmin(srv, addr)
}

// OpenServer opens (creating and recovering as needed) a database
// directory and returns the server.
func OpenServer(dir string, opts ServerOptions) (*Server, error) {
	return live.OpenServer(dir, opts)
}

// Dial connects to a TCP live server and completes the handshake.
func Dial(addr string) (*Client, error) {
	conn, err := live.Dial(addr)
	if err != nil {
		return nil, err
	}
	return live.Connect(conn, live.ClientOptions{})
}

// DialConn dials the raw transport without the client handshake — the
// building block for ClientOptions.Redial policies.
func DialConn(addr string) (Conn, error) { return live.Dial(addr) }

// DialOpts connects to a TCP live server with explicit client options,
// retrying the initial dial under opts.Retry. Set opts.Redial (e.g. to
// DialConn of the same address) to make the client transparently
// reconnect — with backoff and a cold cache — after transport failures.
func DialOpts(addr string, opts ClientOptions) (*Client, error) {
	conn, err := live.DialRetry(addr, opts.Retry)
	if err != nil {
		return nil, err
	}
	return live.Connect(conn, opts)
}

// ClusterOptions configures NewCluster: the server's options plus how
// many in-process clients to attach. (ServerOptions.Transport matters only
// if the cluster's server also listens; attached clients use pipes.)
type ClusterOptions struct {
	ServerOptions
	Clients int // number of attached clients (default 1)
}

// Cluster is an in-process server with a set of attached clients —
// the workstation/server configuration of the paper without leaving the
// process. Use it for embedding, examples, and tests.
type Cluster struct {
	srv     *live.Server
	clients []*live.Client
	metrics *MetricsRegistry // shared registry passed to attached clients (may be nil)
}

// NewCluster opens a server in dir and attaches the requested clients via
// in-process transports.
func NewCluster(dir string, opts ClusterOptions) (*Cluster, error) {
	n := opts.Clients
	if n <= 0 {
		n = 1
	}
	srv, err := live.OpenServer(dir, opts.ServerOptions)
	if err != nil {
		return nil, err
	}
	cl := &Cluster{srv: srv, metrics: opts.Metrics}
	for i := 0; i < n; i++ {
		if _, err := cl.AttachClient(); err != nil {
			cl.Close()
			return nil, err
		}
	}
	return cl, nil
}

// Server returns the underlying server (e.g. for Stats or Checkpoint).
func (c *Cluster) Server() *Server { return c.srv }

// Client returns the i-th attached client (0-based).
func (c *Cluster) Client(i int) *Client {
	if i < 0 || i >= len(c.clients) {
		panic(fmt.Sprintf("repro: client %d out of range [0,%d)", i, len(c.clients)))
	}
	return c.clients[i]
}

// NumClients returns the number of attached clients.
func (c *Cluster) NumClients() int { return len(c.clients) }

// AttachClient connects one more in-process client.
func (c *Cluster) AttachClient() (*Client, error) {
	return c.attachOver(live.Pipe())
}

// attachOver attaches a session to sEnd and connects a client over cEnd,
// the two ends of one connection.
func (c *Cluster) attachOver(cEnd, sEnd Conn) (*Client, error) {
	if _, err := c.srv.Attach(sEnd); err != nil {
		return nil, err
	}
	cli, err := live.Connect(cEnd, live.ClientOptions{Metrics: c.metrics})
	if err != nil {
		// The session is attached and nobody will ever talk to it: closing
		// the connection is what detaches it and stops its goroutines.
		cEnd.Close()
		return nil, err
	}
	c.clients = append(c.clients, cli)
	return cli, nil
}

// Close shuts down clients then the server.
func (c *Cluster) Close() error {
	for _, cl := range c.clients {
		cl.Close()
	}
	return c.srv.Close()
}

// ---- Simulation facade ----

// Workload re-exports the simulation workload specification.
type Workload = workload.Spec

// Locality selects the paper's two transaction shapes.
type Locality = workload.Locality

// The two locality settings (both average 120 objects per transaction).
const (
	LowLocality  = workload.LowLocality  // 30 pages x 1-7 objects
	HighLocality = workload.HighLocality // 10 pages x 8-16 objects
)

// The paper's workload presets (Section 4.2 / Table 2).
var (
	HotColdWorkload            = workload.HotColdSpec
	UniformWorkload            = workload.UniformSpec
	HiConWorkload              = workload.HiConSpec
	PrivateWorkload            = workload.PrivateSpec
	InterleavedPrivateWorkload = workload.InterleavedPrivateSpec
)

// SimConfig is the simulation configuration (Table 1 parameters).
type SimConfig = model.Config

// SimResults is one simulation run's output.
type SimResults = model.Results

// DefaultSimConfig returns the paper's Table 1 settings for a protocol and
// workload.
func DefaultSimConfig(proto Protocol, w Workload) SimConfig {
	return model.DefaultConfig(proto, w)
}

// Simulate runs one simulation to completion.
func Simulate(cfg SimConfig) *SimResults { return model.Run(cfg) }
