package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync/atomic"
)

// CommitStage names one stage of the live commit path. The stages tile a
// commit's server-side life: queue (receive to commit processing), WAL
// encode (off-lock), lock wait (the engine lock, which a checkpoint holds
// from its log force to its truncation), WAL append, install (payload
// copies into the store), fsync wait (group-commit durability), and ack
// (post-durability engine finish).
type CommitStage uint8

const (
	StageQueue CommitStage = iota
	StageEncode
	StageLockWait
	StageAppend
	StageInstall
	StageSyncWait
	StageAck
	NumCommitStages
)

var commitStageNames = [NumCommitStages]string{
	"queue", "encode", "lock-wait", "append", "install", "fsync-wait", "ack",
}

func (st CommitStage) String() string {
	if st >= NumCommitStages {
		return "CommitStage(?)"
	}
	return commitStageNames[st]
}

// Spans records per-stage commit latencies into one histogram per stage
// (`oodb_commit_stage_ns{stage="..."}` when built on a registry), with a
// per-bucket exemplar transaction id: the last transaction that landed in
// a latency class names itself, so a p99 bucket links straight to a
// `/trace?txn=` lookup. Recording is two atomic adds plus one atomic
// store; there is no enable switch because the stages are timed by the
// commit path anyway.
type Spans struct {
	hists     [NumCommitStages]*Histogram
	exemplars [NumCommitStages][HistBuckets]atomic.Int64
}

// NewSpans returns a Spans recording into reg's
// oodb_commit_stage_ns{stage=...} histograms (private histograms when reg
// is nil).
func NewSpans(reg *Registry) *Spans {
	sp := &Spans{}
	for st := CommitStage(0); st < NumCommitStages; st++ {
		if reg != nil {
			sp.hists[st] = reg.Histogram(
				Labeled("oodb_commit_stage_ns", "stage", commitStageNames[st]),
				"commit latency by pipeline stage, ns")
		} else {
			sp.hists[st] = &Histogram{}
		}
	}
	return sp
}

// Observe records one stage latency with txn as the bucket's exemplar.
func (sp *Spans) Observe(st CommitStage, ns int64, txn int64) {
	if sp == nil || st >= NumCommitStages {
		return
	}
	sp.hists[st].Observe(ns)
	sp.exemplars[st][bucketIndex(ns)].Store(txn)
}

// StageSpan is one stage's aggregate view.
type StageSpan struct {
	Stage       string  `json:"stage"`
	Count       int64   `json:"count"`
	MeanNs      float64 `json:"mean_ns"`
	P50Ns       int64   `json:"p50_ns"`
	P90Ns       int64   `json:"p90_ns"`
	P99Ns       int64   `json:"p99_ns"`
	MaxNs       int64   `json:"max_ns"`
	ExemplarTxn int64   `json:"p99_exemplar_txn"` // a txn from the p99 latency class (0: none)
}

// SpansSnapshot is the full per-stage view.
type SpansSnapshot struct {
	Stages []StageSpan `json:"stages"`
}

// Snapshot reads every stage. The exemplar is taken from the bucket where
// the cumulative count crosses p99 (walking down to the nearest populated
// bucket), so it names a real slow transaction, not an average one.
func (sp *Spans) Snapshot() *SpansSnapshot {
	out := &SpansSnapshot{}
	if sp == nil {
		return out
	}
	for st := CommitStage(0); st < NumCommitStages; st++ {
		s := sp.hists[st].Snapshot()
		span := StageSpan{
			Stage: commitStageNames[st], Count: s.Count, MeanNs: s.Mean(),
			P50Ns: s.Quantile(0.50), P90Ns: s.Quantile(0.90), P99Ns: s.Quantile(0.99),
			MaxNs: s.Max,
		}
		if s.Count > 0 {
			target := int64(0.99 * float64(s.Count))
			if target < 1 {
				target = 1
			}
			var cum int64
			p99b := 0
			for i := 0; i < HistBuckets; i++ {
				cum += s.Counts[i]
				if cum >= target {
					p99b = i
					break
				}
			}
			for i := p99b; i >= 0; i-- {
				if txn := sp.exemplars[st][i].Load(); txn != 0 {
					span.ExemplarTxn = txn
					break
				}
			}
		}
		out.Stages = append(out.Stages, span)
	}
	return out
}

// WriteJSON writes the snapshot as one JSON object.
func (sp *Spans) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(sp.Snapshot())
}

// WriteHuman writes the snapshot as a per-stage table.
func (sp *Spans) WriteHuman(w io.Writer) error {
	sn := sp.Snapshot()
	if _, err := fmt.Fprintf(w, "%-12s %10s %12s %10s %10s %10s %12s %14s\n",
		"stage", "count", "mean-ns", "p50-ns", "p90-ns", "p99-ns", "max-ns", "p99-txn"); err != nil {
		return err
	}
	for _, s := range sn.Stages {
		if _, err := fmt.Fprintf(w, "%-12s %10d %12.0f %10d %10d %10d %12d %14d\n",
			s.Stage, s.Count, s.MeanNs, s.P50Ns, s.P90Ns, s.P99Ns, s.MaxNs, s.ExemplarTxn); err != nil {
			return err
		}
	}
	return nil
}
