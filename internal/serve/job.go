package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"dcatch/internal/core"
	"dcatch/internal/lifecycle"
	"dcatch/internal/obs"
)

// Submission errors, mapped onto HTTP statuses by the handlers.
var (
	// ErrQueueFull is returned when the bounded job queue has no room; the
	// HTTP layer answers 429 with Retry-After.
	ErrQueueFull = errors.New("serve: job queue full")
	// ErrShuttingDown is returned once graceful shutdown has begun.
	ErrShuttingDown = errors.New("serve: shutting down")
)

// jobResult is what a finished analysis leaves behind: the rendered report
// (byte-identical to the local CLI's output), its one-line summary and the
// pipeline stats. Cached results are shared across jobs and never mutated.
type jobResult struct {
	report  []byte
	summary string
	stats   *core.Stats
	oom     bool
}

// job is one unit of work moving through the manager. The run closure
// captures the decoded inputs (benchmark + options, or trace + options);
// the manager stays oblivious to what kind of analysis it is running.
// Terminal jobs stay listed, so every terminal transition drops the closure
// and the inputs with it.
type job struct {
	id       string
	kind     string
	bench    string
	cacheKey string
	memNeed  int64
	run      func() (*jobResult, error)
	ctx      context.Context
	cancel   context.CancelFunc
	done     chan struct{} // closed on terminal state
	rec      *obs.Recorder // per-job telemetry (nil with NoJobTelemetry)
	hub      *eventHub     // live event stream (nil on direct submissions)
	qspan    *obs.Span     // open serve.queue_wait span, set before enqueue

	mu        sync.Mutex
	state     string
	claimed   bool // a worker owns the terminal transition
	cacheHit  bool
	errMsg    string
	created   time.Time
	claimedAt time.Time
	started   time.Time
	finished  time.Time
	result    *jobResult
}

// status snapshots the job for the API.
func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:       j.id,
		Kind:     j.kind,
		Bench:    j.bench,
		State:    j.state,
		CacheHit: j.cacheHit,
		Error:    j.errMsg,
		Created:  j.created,
	}
	if !j.started.IsZero() {
		t := j.started
		st.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.Finished = &t
	}
	if j.result != nil {
		st.Summary = j.result.summary
		st.Stats = j.result.stats
		st.OOM = j.result.oom
	}
	return st
}

// manager owns the bounded queue, the worker pool and the admission gate.
type manager struct {
	cfg   Config
	rec   *obs.Recorder
	queue chan *job
	mem   *memGate
	cache *cache
	drain lifecycle.Drainer // accepted-but-unfinished jobs
	wg    sync.WaitGroup    // worker goroutines

	// draining flips once shutdown begins; /healthz reads only this, so
	// liveness stays cheap no matter how contended the manager mutex is.
	draining atomic.Bool

	mu      sync.Mutex
	closed  bool
	jobs    map[string]*job
	order   []string
	nextID  int
	running int
}

func newManager(cfg Config, rec *obs.Recorder) *manager {
	m := &manager{
		cfg:   cfg,
		rec:   rec,
		queue: make(chan *job, cfg.QueueDepth),
		mem:   &memGate{cap: cfg.MemBudget},
		cache: newCache(cfg.CacheEntries),
		jobs:  map[string]*job{},
	}
	for i := 0; i < cfg.Workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m
}

// submit registers a new job. A cache hit completes the job immediately
// (no queue slot, no analysis); otherwise the job takes a queue slot or is
// refused with ErrQueueFull.
func (m *manager) submit(kind, bench, cacheKey string, memNeed int64, tel jobTelemetry, run func() (*jobResult, error)) (*job, error) {
	if memNeed <= 0 {
		memNeed = m.cfg.DefaultJobBytes
	}
	if m.cfg.MemBudget > 0 && memNeed > m.cfg.MemBudget {
		// A need beyond the whole budget waits for an idle server and runs
		// alone rather than deadlocking admission forever.
		memNeed = m.cfg.MemBudget
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, ErrShuttingDown
	}
	ctx, cancel := context.WithCancel(context.Background())
	j := &job{
		kind:     kind,
		bench:    bench,
		cacheKey: cacheKey,
		memNeed:  memNeed,
		run:      run,
		ctx:      ctx,
		cancel:   cancel,
		done:     make(chan struct{}),
		rec:      tel.rec,
		hub:      tel.hub,
		state:    StateQueued,
		created:  time.Now(),
	}
	m.rec.Count("serve.jobs.submitted", 1)
	m.rec.Count("serve.jobs."+kind, 1)

	if res, ok := m.cache.get(cacheKey); ok {
		m.rec.Count("serve.cache.hits", 1)
		j.run = nil
		j.cacheHit = true
		j.state = StateDone
		j.result = res
		j.finished = j.created
		close(j.done)
		m.registerLocked(j)
		m.rec.Observe("serve.job.wall_us", 0)
		j.hub.publishState(StateDone)
		j.hub.close()
		return j, nil
	}
	m.rec.Count("serve.cache.misses", 1)

	if !m.drain.Enter() {
		cancel()
		return nil, ErrShuttingDown
	}
	// Open the queue-wait span and announce the queued state before the
	// queue send: a worker may claim the job the instant it lands in the
	// channel, and the send's happens-before edge makes j.qspan safe to
	// read lock-free in runJob.
	j.qspan = j.rec.Span("serve.queue_wait")
	j.hub.publishState(StateQueued)
	select {
	case m.queue <- j:
	default:
		m.drain.Exit()
		cancel()
		j.qspan.End()
		m.rec.Count("serve.rejected.queue_full", 1)
		return nil, ErrQueueFull
	}
	m.rec.CountMax("serve.queue.peak", int64(len(m.queue)))
	m.registerLocked(j)
	return j, nil
}

// registerLocked assigns the job its ID and records it; m.mu must be held.
func (m *manager) registerLocked(j *job) {
	m.nextID++
	j.id = fmt.Sprintf("j%06d", m.nextID)
	m.jobs[j.id] = j
	m.order = append(m.order, j.id)
}

// get returns the job by ID.
func (m *manager) get(id string) (*job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// list returns every job's status in submission order.
func (m *manager) list() []JobStatus {
	m.mu.Lock()
	ids := append([]string(nil), m.order...)
	jobs := make([]*job, 0, len(ids))
	for _, id := range ids {
		jobs = append(jobs, m.jobs[id])
	}
	m.mu.Unlock()
	out := make([]JobStatus, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.status())
	}
	return out
}

// cancelJob requests cancellation: a still-queued job goes terminal at
// once (its queue slot is skipped by the worker that eventually drains
// it); a job waiting for memory admission is released by its context; a
// running job cannot be interrupted mid-analysis and finishes normally.
func (m *manager) cancelJob(id string) error {
	j, ok := m.get(id)
	if !ok {
		return fmt.Errorf("serve: unknown job %s", id)
	}
	j.cancel()
	j.mu.Lock()
	if !j.claimed && j.state == StateQueued {
		j.state = StateCanceled
		j.run = nil
		j.finished = time.Now()
		created, finished := j.created, j.finished
		close(j.done)
		j.mu.Unlock()
		m.finishCounters(StateCanceled)
		j.qspan.End()
		m.rec.Observe("serve.job.wall_us", finished.Sub(created).Microseconds())
		j.hub.publishState(StateCanceled)
		j.hub.close()
		m.drain.Exit()
		return nil
	}
	j.mu.Unlock()
	return nil
}

func (m *manager) finishCounters(state string) {
	m.rec.Count("serve.jobs."+state, 1)
}

// worker drains the queue until shutdown closes it.
func (m *manager) worker() {
	defer m.wg.Done()
	for j := range m.queue {
		m.runJob(j)
	}
}

// runJob takes one job through admission → analysis → terminal state.
func (m *manager) runJob(j *job) {
	j.mu.Lock()
	if j.state != StateQueued {
		// Canceled while queued; its terminal transition already happened.
		j.mu.Unlock()
		return
	}
	j.claimed = true
	j.claimedAt = time.Now()
	j.mu.Unlock()
	j.qspan.End()

	// Memory-budget admission: block until the job's declared analysis
	// footprint fits under the server-wide budget. Cancellation during the
	// wait releases this worker back to the pool immediately.
	aspan := j.rec.Span("serve.admission_wait")
	if err := m.mem.acquire(j.ctx, j.memNeed); err != nil {
		aspan.End()
		m.finish(j, StateCanceled, nil, "canceled while waiting for memory admission")
		return
	}
	aspan.End()
	m.rec.Count("serve.admitted.bytes", j.memNeed)
	defer m.mem.release(j.memNeed)

	if j.ctx.Err() != nil {
		m.finish(j, StateCanceled, nil, "canceled")
		return
	}

	j.mu.Lock()
	j.state = StateRunning
	j.started = time.Now()
	j.mu.Unlock()
	j.hub.publishState(StateRunning)
	m.mu.Lock()
	m.running++
	m.mu.Unlock()
	defer func() {
		m.mu.Lock()
		m.running--
		m.mu.Unlock()
	}()

	rspan := j.rec.Span("serve.run")
	res, err := runSafe(j.run)
	rspan.End()
	if err != nil {
		m.finish(j, StateFailed, nil, err.Error())
		return
	}
	m.rec.Count("serve.jobs.executed", 1)
	m.cache.put(j.cacheKey, res)
	m.finish(j, StateDone, res, "")
}

// finish moves a claimed job to its terminal state, closing its event
// stream and recording its stage waits into the service-level latency
// histograms (microsecond units, exported on /metrics).
func (m *manager) finish(j *job, state string, res *jobResult, errMsg string) {
	j.mu.Lock()
	j.state = state
	j.run = nil
	j.result = res
	j.errMsg = errMsg
	j.finished = time.Now()
	created, claimed, started, finished := j.created, j.claimedAt, j.started, j.finished
	close(j.done)
	j.mu.Unlock()
	m.finishCounters(state)

	m.rec.Observe("serve.job.wall_us", finished.Sub(created).Microseconds())
	if !claimed.IsZero() {
		m.rec.Observe("serve.job.queue_wait_us", claimed.Sub(created).Microseconds())
	}
	if !started.IsZero() {
		m.rec.Observe("serve.job.admission_wait_us", started.Sub(claimed).Microseconds())
		m.rec.Observe("serve.job.run_us", finished.Sub(started).Microseconds())
	}
	j.hub.publishState(state)
	j.hub.close()
	m.drain.Exit()
}

// runSafe converts an analysis panic into a job failure instead of taking
// the whole service down with it.
func runSafe(run func() (*jobResult, error)) (res *jobResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("serve: analysis panic: %v", r)
		}
	}()
	return run()
}

// shutdown stops intake and drains: queued and running jobs finish (they
// were accepted with a success status; clients expect their results), then
// the workers exit. The context bounds the wait; on expiry remaining jobs
// are canceled.
func (m *manager) shutdown(ctx context.Context) {
	m.draining.Store(true)
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	close(m.queue)
	m.mu.Unlock()

	timeout := time.Duration(0)
	if dl, ok := ctx.Deadline(); ok {
		timeout = time.Until(dl)
	}
	if m.drain.Close(timeout) {
		return
	}
	// Deadline expired: cancel whatever is left and give it a moment.
	m.mu.Lock()
	for _, j := range m.jobs {
		j.cancel()
	}
	m.mu.Unlock()
	m.drain.Close(time.Second)
}

// stats snapshots the manager's gauges for /healthz and expvar.
func (m *manager) statsSnapshot() map[string]any {
	m.mu.Lock()
	defer m.mu.Unlock()
	return map[string]any{
		"queue_depth":   len(m.queue),
		"queue_cap":     cap(m.queue),
		"running":       m.running,
		"workers":       m.cfg.Workers,
		"jobs":          len(m.jobs),
		"cache_entries": m.cache.len(),
		"mem_in_use":    m.mem.inUse(),
		"mem_budget":    m.cfg.MemBudget,
		"closing":       m.closed,
	}
}

// memGate is a FIFO weighted semaphore over the server-wide analysis
// memory budget. cap <= 0 means unlimited.
type memGate struct {
	mu      sync.Mutex
	cap     int64
	used    int64
	waiters []*memWaiter
}

type memWaiter struct {
	need  int64
	ready chan struct{}
}

// acquire blocks until need bytes fit under the budget or ctx is canceled.
// Grants are FIFO so a large job cannot be starved by a stream of small
// ones.
func (g *memGate) acquire(ctx context.Context, need int64) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if g.cap <= 0 {
		return nil
	}
	g.mu.Lock()
	if len(g.waiters) == 0 && g.used+need <= g.cap {
		g.used += need
		g.mu.Unlock()
		return nil
	}
	w := &memWaiter{need: need, ready: make(chan struct{})}
	g.waiters = append(g.waiters, w)
	g.mu.Unlock()
	select {
	case <-w.ready:
		return nil
	case <-ctx.Done():
		g.mu.Lock()
		granted := true
		for i, x := range g.waiters {
			if x == w {
				g.waiters = slices.Delete(g.waiters, i, i+1)
				granted = false
				break
			}
		}
		if granted {
			// Lost the race with a grant: hand the tokens back.
			g.used -= w.need
			g.grantLocked()
		}
		g.mu.Unlock()
		return ctx.Err()
	}
}

// release returns need bytes to the budget and wakes eligible waiters.
func (g *memGate) release(need int64) {
	if g.cap <= 0 {
		return
	}
	g.mu.Lock()
	g.used -= need
	if g.used < 0 {
		panic("serve: memGate release without acquire")
	}
	g.grantLocked()
	g.mu.Unlock()
}

// grantLocked admits waiters in FIFO order while they fit; g.mu held.
func (g *memGate) grantLocked() {
	for len(g.waiters) > 0 && g.used+g.waiters[0].need <= g.cap {
		w := g.waiters[0]
		g.waiters = g.waiters[1:]
		g.used += w.need
		close(w.ready)
	}
}

// inUse returns the bytes currently admitted.
func (g *memGate) inUse() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.used
}

// defaultWorkers sizes the pool by CPU.
func defaultWorkers() int { return runtime.GOMAXPROCS(0) }
