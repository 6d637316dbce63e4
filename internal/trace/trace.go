// Package trace defines DCatch's run-time trace: the operations of paper
// Table 2 plus memory accesses and lock operations. The runtime emits one
// record per traced operation; trace analysis (internal/hb, internal/detect)
// consumes them; the triggering module reuses lock and HB-operation records
// for its placement analysis.
//
// Each record carries (1) the operation type, (2) the callstack of the
// operation, and (3) an ID that lets the analyzer group related records
// (paper §3.1.2): object identity for memory accesses, thread/event object
// identity for fork/join and enqueue/begin, a per-call random-tag analog for
// RPCs and socket messages (we use a monotonic tag, which serves the same
// matching purpose deterministically), the (path, zxid) pair for ZooKeeper
// updates and notifications, and lock identity for lock operations.
package trace

import "fmt"

// Kind enumerates record types.
type Kind uint8

// Record kinds. The HB-related kinds map one-to-one onto paper Table 2.
const (
	KMemRead Kind = iota
	KMemWrite
	KThreadCreate // Create(t)
	KThreadBegin  // Begin(t)
	KThreadEnd    // End(t)
	KThreadJoin   // Join(t)
	KEventCreate  // Create(e) — enqueue
	KEventBegin   // Begin(e)
	KEventEnd     // End(e)
	KRPCCreate    // Create(r, n1) — call issued
	KRPCBegin     // Begin(r, n2)
	KRPCEnd       // End(r, n2)
	KRPCJoin      // Join(r, n1) — call returned
	KSockSend     // Send(m, n1)
	KSockRecv     // Recv(m, n2)
	KZKUpdate     // Update(s, n1) — push-based sync source
	KZKPushed     // Pushed(s, n2) — watch notification delivery
	KLockAcq
	KLockRel
	KLoopExit // focused-run record for pull-based sync analysis (§3.2.1)
	numKinds
)

var kindNames = [numKinds]string{
	"MemRead", "MemWrite",
	"ThreadCreate", "ThreadBegin", "ThreadEnd", "ThreadJoin",
	"EventCreate", "EventBegin", "EventEnd",
	"RPCCreate", "RPCBegin", "RPCEnd", "RPCJoin",
	"SockSend", "SockRecv",
	"ZKUpdate", "ZKPushed",
	"LockAcq", "LockRel",
	"LoopExit",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// CtxKind classifies the execution context a record was produced in, which
// selects between Rule-Preg and Rule-Pnreg and supports the rule-ablation
// study (Table 9).
type CtxKind uint8

// Context kinds.
const (
	CtxRegular CtxKind = iota // plain thread: whole-thread program order
	CtxEvent                  // event-handler instance
	CtxRPC                    // RPC-function instance
	CtxMsg                    // socket-message-handler instance
	CtxWatch                  // ZooKeeper watch-notification handler instance
)

func (c CtxKind) String() string {
	switch c {
	case CtxEvent:
		return "event"
	case CtxRPC:
		return "rpc"
	case CtxMsg:
		return "msg"
	case CtxWatch:
		return "watch"
	default:
		return "regular"
	}
}

// Rec is one trace record.
type Rec struct {
	Seq       uint64 // global logical timestamp, 1-based
	Node      string // executing node
	Thread    int32  // executing thread (cluster-unique)
	Ctx       int32  // handler-instance id, or the thread's regular-context id
	CtxKind   CtxKind
	Kind      Kind
	Obj       string  // memory ID / lock ID / znode path (kind-dependent)
	Op        uint64  // grouping ID: thread id, event id, RPC/socket tag, zxid, loop static ID
	WriterSeq uint64  // focused runs: seq of the write providing a read's value
	StaticID  int32   // static instruction ID (ir.Meta.ID); -1 for runtime-internal ops
	Stack     []int32 // call-site static IDs from thread/handler entry downward
	Queue     string  // event records: "node/queue" identity
}

// IsMem reports whether r is a memory access (including znode data-plane
// accesses, which DCatch also treats as conflicting accesses — bug HB-4729).
func (r *Rec) IsMem() bool { return r.Kind == KMemRead || r.Kind == KMemWrite }

// IsWrite reports whether r is a write access.
func (r *Rec) IsWrite() bool { return r.Kind == KMemWrite }

// StackKey returns a string identifying the record's full callstack
// including the operation itself; used for callstack-pair deduplication
// (paper §7.1).
func (r *Rec) StackKey() string {
	return fmt.Sprintf("%v@%d", r.Stack, r.StaticID)
}

func (r *Rec) String() string {
	return fmt.Sprintf("#%d %s t%d/c%d(%s) %s obj=%q op=%d s%d",
		r.Seq, r.Node, r.Thread, r.Ctx, r.CtxKind, r.Kind, r.Obj, r.Op, r.StaticID)
}

// Trace is a complete run trace plus the queue metadata the HB analysis
// needs (which queues are single-consumer, for Rule-Eserial).
type Trace struct {
	Program string
	Recs    []Rec
	// QueueConsumers maps "node/queue" to its consumer-thread count.
	QueueConsumers map[string]int

	// decodedBytes is how many input bytes Decode or StreamDecoder consumed
	// to produce decodedRecs; EncodedSize reports it while Recs still holds
	// exactly those records.
	decodedBytes int
	decodedRecs  []Rec
}

// SingleConsumer reports whether the named queue has exactly one consumer.
func (t *Trace) SingleConsumer(q string) bool { return t.QueueConsumers[q] == 1 }

// Window returns records [start, end) as a standalone trace sharing the
// receiver's backing array, program name and queue metadata — the segment a
// cluster coordinator ships to a worker, cut at a record boundary. The view
// is capacity-clipped so appends through it cannot clobber the parent, but
// it aliases the parent's records: treat both as read-only while the view
// is alive. Records already decoded are never mutated by further appends to
// the parent, so taking a window of a still-growing trace is safe as long
// as end is within the decoded prefix.
func (t *Trace) Window(start, end int) *Trace {
	return &Trace{
		Program:        t.Program,
		Recs:           t.Recs[start:end:end],
		QueueConsumers: t.QueueConsumers,
	}
}

// Collector accumulates records during a run. The cooperative scheduler
// guarantees only one thread executes at a time, so Collector needs no
// internal locking; the scheduler's channel handshakes order all accesses.
type Collector struct {
	tr Trace
}

// NewCollector returns an empty collector for the given program name.
func NewCollector(program string) *Collector {
	return &Collector{tr: Trace{Program: program, QueueConsumers: map[string]int{}}}
}

// Emit appends r, assigning its sequence number, and returns that number.
func (c *Collector) Emit(r Rec) uint64 {
	r.Seq = uint64(len(c.tr.Recs) + 1)
	c.tr.Recs = append(c.tr.Recs, r)
	return r.Seq
}

// Len returns the number of records collected so far.
func (c *Collector) Len() int { return len(c.tr.Recs) }

// SetQueueInfo records the consumer count of queue q ("node/queue").
func (c *Collector) SetQueueInfo(q string, consumers int) {
	c.tr.QueueConsumers[q] = consumers
}

// Trace returns the collected trace. The collector must not be used after.
func (c *Collector) Trace() *Trace { return &c.tr }

// Stats is the per-category record breakdown of paper Table 7.
type Stats struct {
	Total  int
	Mem    int
	RPC    int
	Socket int
	Event  int
	Thread int
	Lock   int
	ZKPush int // ZKUpdate + ZKPushed (reported in the paper's Event/RPC rows narrative)
	Other  int
}

// Stats computes the record breakdown.
func (t *Trace) Stats() Stats {
	var s Stats
	s.Total = len(t.Recs)
	for i := range t.Recs {
		switch t.Recs[i].Kind {
		case KMemRead, KMemWrite:
			s.Mem++
		case KRPCCreate, KRPCBegin, KRPCEnd, KRPCJoin:
			s.RPC++
		case KSockSend, KSockRecv:
			s.Socket++
		case KEventCreate, KEventBegin, KEventEnd:
			s.Event++
		case KThreadCreate, KThreadBegin, KThreadEnd, KThreadJoin:
			s.Thread++
		case KLockAcq, KLockRel:
			s.Lock++
		case KZKUpdate, KZKPushed:
			s.ZKPush++
		default:
			s.Other++
		}
	}
	return s
}

// Counters renders the breakdown as observability counters, one per
// operation category (trace.records.*), for the run manifest.
func (s Stats) Counters() map[string]int64 {
	return map[string]int64{
		"trace.records.total":  int64(s.Total),
		"trace.records.mem":    int64(s.Mem),
		"trace.records.rpc":    int64(s.RPC),
		"trace.records.socket": int64(s.Socket),
		"trace.records.event":  int64(s.Event),
		"trace.records.thread": int64(s.Thread),
		"trace.records.lock":   int64(s.Lock),
		"trace.records.zkpush": int64(s.ZKPush),
		"trace.records.other":  int64(s.Other),
	}
}

// PerThread splits record indices by thread, preserving order; the paper's
// tracer writes one file per thread, and tests use this view to validate
// per-thread ordering invariants.
func (t *Trace) PerThread() map[int32][]int {
	m := map[int32][]int{}
	for i := range t.Recs {
		th := t.Recs[i].Thread
		m[th] = append(m[th], i)
	}
	return m
}
