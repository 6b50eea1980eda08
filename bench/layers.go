package main

import (
	"runtime"
	"time"
)

// snapshot reads every always-on counter the layer metrics are deltas
// of: the engine's ServerStats, the server registry's histograms and
// counters, the per-client registries, rusage and the Go runtime.
func snapshot(e *env) metrics {
	s := metrics{}
	st := e.srv.Stats()
	s["read_reqs"] = float64(st.ReadReqs)
	s["write_reqs"] = float64(st.WriteReqs)
	s["callbacks"] = float64(st.Callbacks)
	s["busy_replies"] = float64(st.BusyReplies)
	s["deesc"] = float64(st.Deescalations)
	s["page_grants"] = float64(st.PageGrants)
	s["obj_grants"] = float64(st.ObjGrants)
	s["deadlocks"] = float64(st.Deadlocks)

	reg := e.srv.Metrics()
	hist := func(key string, names ...string) {
		for _, n := range names {
			h := reg.HistogramSnapshot(n)
			s[key+"_ns"] += float64(h.Sum)
			s[key+"_n"] += float64(h.Count)
		}
	}
	hist("lock_wait", `oodb_server_lock_wait_ns{granularity="page"}`, `oodb_server_lock_wait_ns{granularity="object"}`)
	hist("engine_lock_wait", "oodb_live_engine_lock_wait_ns")
	hist("handle", `oodb_server_handle_ns{kind="read"}`, `oodb_server_handle_ns{kind="write"}`,
		`oodb_server_handle_ns{kind="commit"}`, `oodb_server_handle_ns{kind="abort"}`,
		`oodb_server_handle_ns{kind="callback-ack"}`, `oodb_server_handle_ns{kind="deesc-reply"}`)
	hist("sync_wait", "oodb_live_commit_sync_wait_ns")
	hist("wal_append", "oodb_wal_append_ns")
	hist("wal_fsync", "oodb_wal_fsync_ns")
	for key, name := range map[string]string{
		"wal_bytes":   "oodb_wal_appended_bytes_total",
		"wal_records": "oodb_wal_records_total",
		"wal_syncs":   "oodb_wal_syncs_total",
		"checkpoints": "oodb_checkpoints_total",
		"flush_pages": "oodb_store_flush_pages_total",
	} {
		s[key] = float64(reg.CounterValue(name))
	}

	for _, c := range e.clients {
		s["hits"] += float64(c.hits.Value())
		s["misses"] += float64(c.misses.Value())
		s["fetches"] += float64(c.fetches.Value())
		s["aborts"] += float64(c.aborts)
		s["user_bytes"] += float64(c.userBytes)
		s["commits"] += float64(len(c.txns))
		for _, t := range c.txns {
			s["txn_ns"] += float64(t.txnNs)
			s["commit_ns"] += float64(t.commitNs)
		}
	}

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s["mallocs"] = float64(ms.Mallocs)
	s["alloc_bytes"] = float64(ms.TotalAlloc)
	s["gc_pause_ns"] = float64(ms.PauseTotalNs)
	s["cpu_s"] = cpuSeconds()
	s["wall_ns"] = float64(time.Since(procStart))
	return s
}

// layerCounters fills the counter-derived layer metrics from two
// snapshots. Ratios are per committed logical transaction of the
// interval, or shares of the time callers spent waiting in it.
func layerCounters(out metrics, before, after metrics) {
	d := func(k string) float64 { return after[k] - before[k] }
	txns := d("commits")
	per := func(k string) float64 { return ratio(d(k), txns) }

	out["live.client.cache_hit_share"] = ratio(d("hits"), d("hits")+d("misses"))
	out["live.client.fetches_per_txn"] = per("fetches")

	out["core.read_reqs_per_txn"] = per("read_reqs")
	out["core.write_reqs_per_txn"] = per("write_reqs")
	out["core.callbacks_per_txn"] = per("callbacks")
	out["core.busy_replies_per_txn"] = per("busy_replies")
	out["core.deesc_per_txn"] = per("deesc")
	out["core.page_grants_per_txn"] = per("page_grants")
	out["core.obj_grants_per_txn"] = per("obj_grants")
	out["core.deadlocks_per_ktxn"] = 1000 * per("deadlocks")
	out["core.abort_share"] = ratio(d("aborts"), d("aborts")+txns)
	out["core.lock_wait_share"] = ratio(d("lock_wait_ns"), d("txn_ns"))

	out["live.server.engine_lock_wait_share"] = ratio(d("engine_lock_wait_ns"), d("txn_ns"))
	out["live.server.handle_us_per_txn"] = per("handle_ns") / 1e3
	out["live.server.checkpoints"] = d("checkpoints")

	out["live.wal.bytes_per_user_byte"] = ratio(d("wal_bytes"), d("user_bytes"))
	out["live.wal.commits_per_fsync"] = ratio(d("wal_records"), d("wal_syncs"))
	out["live.wal.fsync_us"] = ratio(d("wal_fsync_ns"), d("wal_fsync_n")) / 1e3
	out["live.wal.append_us"] = ratio(d("wal_append_ns"), d("wal_append_n")) / 1e3
	out["live.wal.sync_wait_share"] = ratio(d("sync_wait_ns"), d("commit_ns"))

	out["live.store.flush_pages_per_txn"] = per("flush_pages")

	out["proc.cpu_us_per_txn"] = per("cpu_s") * 1e6
	out["proc.allocs_per_txn"] = per("mallocs")
	out["proc.alloc_bytes_per_txn"] = per("alloc_bytes")
	out["proc.gc_pause_share"] = ratio(d("gc_pause_ns"), d("wall_ns"))
}
