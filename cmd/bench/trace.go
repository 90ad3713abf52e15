package main

import (
	"bufio"
	"fmt"
	"os"
	"time"
)

// Driver spans: the harness sees the engine from outside only, so a span
// wraps one public call the driver makes (heap.Read, Txn.Commit, a wire
// round trip ...), nested under the operation and transaction that caused
// it. Spans live in a per-client buffer allocated before the pass starts
// and are written out, if asked, when it ends.

type spanKind uint8

const (
	spTxn spanKind = iota
	spOp
	spCoreBegin
	spCoreCommit
	spCoreAbort
	spHeapRead
	spHeapUpdate
	spHeapInsert
	spHeapDelete
	spWireBegin
	spWireGet
	spWirePut
	spWireCommit // single-shard transaction: engine fast path
	spWireCommitCross
	spWireAbort
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"txn", "op", "core.begin", "core.commit", "core.abort",
	"heap.read", "heap.update", "heap.insert", "heap.delete",
	"wire.begin", "wire.get", "wire.put", "wire.commit", "wire.commit_cross", "wire.abort",
}

type span struct {
	start, end int64 // ns since the tracer's epoch
	parent     int32 // index in the same buffer, -1 for a root
	txn        uint32
	kind       spanKind
}

// tracer is one client's span buffer. A nil tracer, or one switched off,
// records nothing: begin returns -1 and end ignores it, so untraced
// windows pay one predictable branch per call site.
type tracer struct {
	client  int
	epoch   time.Time
	on      bool
	spans   []span
	dropped int64
}

func newTracer(client, capacity int, epoch time.Time) *tracer {
	return &tracer{client: client, epoch: epoch, spans: make([]span, 0, capacity)}
}

func (t *tracer) begin(kind spanKind, parent int32, txn uint32) int32 {
	if t == nil || !t.on {
		return -1
	}
	if len(t.spans) == cap(t.spans) {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, span{start: int64(time.Since(t.epoch)), parent: parent, txn: txn, kind: kind})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(i int32) {
	if i >= 0 {
		t.spans[i].end = int64(time.Since(t.epoch))
	}
}

// spanStats aggregates spans by kind: how many, their total duration and
// their self time (duration minus the part covered by child spans).
type spanStats struct {
	count [numSpanKinds]int64
	total [numSpanKinds]int64
	self  [numSpanKinds]int64
}

func (s *spanStats) add(t *tracer) {
	if t == nil {
		return
	}
	child := make([]int64, len(t.spans))
	for _, sp := range t.spans {
		if sp.parent >= 0 {
			child[sp.parent] += sp.end - sp.start
		}
	}
	for i, sp := range t.spans {
		d := sp.end - sp.start
		s.count[sp.kind]++
		s.total[sp.kind] += d
		s.self[sp.kind] += d - child[i]
	}
}

// meanSelf is the mean self time of one span kind, in ns.
func (s *spanStats) meanSelf(k spanKind) float64 {
	if s.count[k] == 0 {
		return 0
	}
	return float64(s.self[k]) / float64(s.count[k])
}

// writeSpans writes every client's spans as JSON lines.
func writeSpans(path string, tracers []*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace-out: %w", err)
	}
	w := bufio.NewWriterSize(f, 1<<20)
	for _, t := range tracers {
		if t == nil {
			continue
		}
		for i, sp := range t.spans {
			fmt.Fprintf(w, `{"client":%d,"id":%d,"parent":%d,"txn":%d,"name":%q,"start_ns":%d,"end_ns":%d}`+"\n",
				t.client, i, sp.parent, sp.txn, spanNames[sp.kind], sp.start, sp.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace-out: %w", err)
	}
	return f.Close()
}
