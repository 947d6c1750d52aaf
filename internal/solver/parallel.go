package solver

import (
	"sort"
	"sync"
	"sync/atomic"

	"softsoa/internal/core"
	"softsoa/internal/semiring"
)

// maxIncumbents caps the shared bound's antichain. Dropping an
// incomparable value only weakens pruning — never soundness, since a
// prune requires strict dominance by a member — and keeps the
// copy-on-write snapshots small.
const maxIncumbents = 64

// boundRefreshNodes is the incumbent broadcast period: a worker
// re-reads the shared antichain snapshot every this many expanded
// nodes (and immediately after publishing an incumbent of its own),
// instead of taking the atomic load on every node. Pruning against a
// stale snapshot is sound — every member is a real leaf value — so
// the period trades a little pruning lag for keeping the shared
// cache line out of the per-node path.
const boundRefreshNodes = 64

// wsTask is one unexplored region of the search tree: the subtrees
// rooted at values [from, domainSize) of the variable at depth
// len(path), under the prefix assignment path (digit choices for
// perm[0..len(path)-1], in depth order). bound is the partial product
// entering the prefix node, folded along the same constraint schedule
// as the sequential recursion, so every leaf value computed under the
// task is bit-identical to the sequential solver's.
type wsTask[T any] struct {
	path  []int
	from  int
	bound T
}

// wsSched is the shared state of one work-stealing solve.
type wsSched[T any] struct {
	pl      *plan[T]
	shared  *sharedBound[T]
	workers []*wsWorker[T]
	// hungry counts workers currently hunting for work; a nonzero
	// value is the signal that makes busy workers spill subtrees.
	hungry atomic.Int64
	// pending counts tasks that exist but have not finished (queued
	// or executing). When it reaches zero the search is complete.
	pending atomic.Int64
	// parkMu guards wakeSeq and backs parkCond: a hungry worker whose
	// steal sweep came up empty parks on the condition variable
	// instead of burning its time slice in a Gosched spin — the win is
	// workers >> cores, where spinners used to crowd the runnable
	// queue. wakeSeq is bumped (under parkMu, so a parking worker
	// cannot miss it) on every spill and on the final task's
	// completion; parked workers re-run their steal sweep on each
	// wake-up.
	parkMu   sync.Mutex
	parkCond *sync.Cond
	wakeSeq  uint64 // guarded by parkMu
}

// wake bumps the wake sequence and releases every parked worker. It
// runs per spill and per task completion that drains the search —
// demand-bounded events, never the per-node path.
func (s *wsSched[T]) wake() {
	s.parkMu.Lock()
	s.wakeSeq++
	s.parkMu.Unlock()
	s.parkCond.Broadcast()
}

// wsWorker is one work-stealing searcher: its own deque, digit
// vector, localized constraint tables, uncapped frontier and counters.
// Nothing here is shared — cross-worker traffic goes through the
// deques, the hungry/pending counters and the shared incumbent bound.
type wsWorker[T any] struct {
	id    int
	sched *wsSched[T]
	deque *wsDeque[wsTask[T]]
	// ev is this worker's localized evaluator: the constraint tables
	// copied into a private cache-line-padded arena (Localize), so the
	// inner loop reads worker-local memory.
	ev     *core.Evaluator[T]
	digits []int
	fr     *digitFrontier[T]
	// snap is the cached shared-bound snapshot, refreshed every
	// boundRefreshNodes nodes; snapAge is the node count at refresh.
	snap    []T
	snapAge int64
	blevel  T
	nodes   int64
	prunes  int64
	tasks   int64
	steals  int64
	splits  int64
}

// solveParallel runs the search over a work-stealing pool: worker 0
// seeds its deque with the root task, every other worker starts out
// hungry and steals, and busy workers adaptively split — spilling the
// unexplored sibling ranges along their depth-first spine into their
// deque — whenever some worker is hungry. There is no fixed fan-out
// frontier: task granularity follows demand, so skewed trees keep all
// cores busy until the last subtree drains.
//
// Determinism: leaf bounds are folded along the same constraint
// schedule as the sequential solver, so leaf values are bit-identical;
// Blevel is a Plus-fold of leaf values and Plus is an exact lattice
// join (min/max/or/union — no rounding), so any fold order gives the
// same result, with pruned leaves covered by absorption (each is
// strictly dominated by an incumbent that is folded in). The frontier
// is rebuilt by sorting the workers' UNCAPPED local frontier entries
// into leaf order — each entry carries its full digit vector, whose
// order under the variable permutation is exactly the sequential
// visit order — and replaying them through the same capped filter the
// sequential solver uses, which replays the sequential offer stream;
// see WithWorkers for the partial-order cap caveat. Nodes, Prunes,
// Tasks, Steals and Splits depend on scheduling.
func solveParallel[T any](pl *plan[T], workers int) Result[T] {
	sched := &wsSched[T]{pl: pl, shared: newSharedBound[T](pl.sr)}
	sched.parkCond = sync.NewCond(&sched.parkMu)
	sched.workers = make([]*wsWorker[T], workers)
	for i := range sched.workers {
		sched.workers[i] = &wsWorker[T]{
			id:     i,
			sched:  sched,
			deque:  newWSDeque[wsTask[T]](),
			ev:     pl.ev.Localize(),
			digits: make([]int, pl.n),
			fr:     newDigitFrontier[T](pl.sr, 0),
			blevel: pl.sr.Zero(),
		}
	}
	sched.pending.Store(1)
	sched.workers[0].deque.push(&wsTask[T]{bound: pl.rootBound})

	var wg sync.WaitGroup
	for _, w := range sched.workers {
		wg.Add(1)
		go func(w *wsWorker[T]) {
			defer wg.Done()
			w.loop()
		}(w)
	}
	wg.Wait()

	res := Result[T]{Blevel: pl.sr.Zero()}
	res.Stats.Workers = workers
	var entries []digitSol[T]
	for _, w := range sched.workers {
		res.Stats.Nodes += w.nodes
		res.Stats.Prunes += w.prunes
		res.Stats.Tasks += w.tasks
		res.Stats.Steals += w.steals
		res.Stats.Splits += w.splits
		res.Blevel = pl.sr.Plus(res.Blevel, w.blevel)
		entries = append(entries, w.fr.sol...)
	}
	// Sort surviving leaves into the sequential visit order (the digit
	// vectors compared along the variable permutation) and replay them
	// through the capped frontier: the same offer stream the
	// sequential solver produced, minus leaves it would have displaced.
	sort.Slice(entries, func(i, j int) bool {
		a, b := entries[i].digits, entries[j].digits
		for _, vi := range pl.perm {
			if a[vi] != b[vi] {
				return a[vi] < b[vi]
			}
		}
		return false
	})
	fr := newDigitFrontier[T](pl.sr, pl.maxBest)
	for _, e := range entries {
		fr.offer(e.digits, e.value)
	}
	res.Best = fr.solutions(pl.ev)
	return res
}

// loop is one worker's scheduling loop: drain the own deque, then
// steal; exit when no task exists anywhere.
func (w *wsWorker[T]) loop() {
	for {
		t, ok := w.deque.pop()
		if !ok {
			t, ok = w.hunt()
			if !ok {
				return
			}
		}
		w.exec(t)
		if w.sched.pending.Add(-1) == 0 {
			// The search just drained: release every parked worker so
			// they observe pending == 0 and exit.
			w.sched.wake()
		}
	}
}

// hunt looks for a task on the other workers' deques, advertising its
// hunger so busy workers start spilling. Between sweeps the worker
// parks on the scheduler's condition variable — woken by the next
// spill or by the search draining — rather than spinning through
// Gosched, so a hungry worker costs nothing while no work exists for
// it (the workers >> cores regime). It returns false only when every
// task in the system has finished.
func (w *wsWorker[T]) hunt() (*wsTask[T], bool) {
	sched := w.sched
	sched.hungry.Add(1)
	defer sched.hungry.Add(-1)
	for {
		// Read the wake sequence before sweeping: a spill that lands
		// during the sweep bumps it, and the park re-check below then
		// refuses to sleep, so the sweep/park pair cannot miss a task.
		sched.parkMu.Lock()
		seq := sched.wakeSeq
		sched.parkMu.Unlock()
		if sched.pending.Load() == 0 {
			return nil, false
		}
		for i := 1; i < len(sched.workers); i++ {
			victim := sched.workers[(w.id+i)%len(sched.workers)]
			if t, ok := victim.deque.steal(); ok {
				w.steals++
				return t, true
			}
		}
		// Re-check the own deque: a spill of ours may have landed
		// since the failed pop that brought us here.
		if t, ok := w.deque.pop(); ok {
			return t, true
		}
		sched.parkMu.Lock()
		for sched.wakeSeq == seq && sched.pending.Load() != 0 {
			sched.parkCond.Wait()
		}
		sched.parkMu.Unlock()
	}
}

// exec runs one task: install its prefix assignment and walk its
// value range.
func (w *wsWorker[T]) exec(t *wsTask[T]) {
	w.tasks++
	pl := w.sched.pl
	for d, v := range t.path {
		w.digits[pl.perm[d]] = v
	}
	w.descend(len(t.path), t.from, t.bound)
}

// descend walks values [from, size) of the variable at depth,
// recursing into run for each child — the loop body of the sequential
// recursion, plus the spill check: when some worker is hungry and the
// own deque is empty, the unexplored sibling range is packaged as a
// task and pushed onto the own deque for a thief to take, and the
// walk continues with only the current child. The emptiness condition
// throttles the spill rate to the steal rate — one offered task per
// outstanding demand, not one per node — and spilling along the
// active path hands a thief the highest (largest) unexplored subtree
// first, since thieves steal the oldest spill.
//
//softsoa:hotpath
func (w *wsWorker[T]) descend(depth, from int, bound T) {
	pl := w.sched.pl
	vi := pl.perm[depth]
	size := pl.sizes[vi]
	for d := from; d < size; d++ {
		if d+1 < size && w.sched.hungry.Load() > 0 && w.deque.empty() {
			w.spill(depth, d+1, bound)
			size = d + 1 // the rest of the range now belongs to the spilled task
		}
		w.digits[vi] = d
		b := bound
		for _, k := range pl.byDepth[depth+1] {
			b = pl.sr.Times(b, w.ev.Eval(k, w.digits))
		}
		w.run(depth+1, b)
	}
}

// spill donates the sibling range [from, size) at depth to the deque.
// It runs only when a worker is hungry, so its allocations are paid
// per steal-demand event, never per node.
func (w *wsWorker[T]) spill(depth, from int, bound T) {
	pl := w.sched.pl
	//lint:ignore hotpath spill allocates one task per steal-demand event, not per node
	path := make([]int, depth)
	for i := range path {
		path[i] = w.digits[pl.perm[i]]
	}
	w.sched.pending.Add(1)
	//lint:ignore hotpath spill allocates one task per steal-demand event, not per node
	w.deque.push(&wsTask[T]{path: path, from: from, bound: bound})
	w.splits++
	// Wake parked thieves: the spill exists because someone is hungry,
	// and a hungry worker that exhausted its steal sweep is asleep.
	w.sched.wake()
}

// run explores the subtree rooted at depth under the given sound
// upper bound: the work-stealing twin of bbSearch.run, identical fold
// schedule and frontier discipline, with the shared incumbent
// snapshot refreshed periodically instead of loaded per node. The
// steady-state path allocates nothing.
//
//softsoa:hotpath
func (w *wsWorker[T]) run(depth int, bound T) {
	pl := w.sched.pl
	w.nodes++
	if pl.prune {
		ub := bound
		if pl.lookahead {
			ub = pl.sr.Times(bound, pl.optimisticRest[depth])
		}
		if w.dominated(ub) {
			w.prunes++
			return
		}
	}
	if depth == pl.n {
		w.blevel = pl.sr.Plus(w.blevel, bound)
		if w.fr.offer(w.digits, bound) {
			w.sched.shared.offer(bound)
			w.refreshSnap()
		}
		return
	}
	w.descend(depth, 0, bound)
}

// dominated prunes against the cached snapshot of the shared
// incumbent antichain. The snapshot is refreshed every
// boundRefreshNodes nodes (periodic incumbent broadcast); staleness is
// sound because every member is an attained leaf value. Allocates
// nothing.
//
//softsoa:hotpath
func (w *wsWorker[T]) dominated(v T) bool {
	pl := w.sched.pl
	if w.nodes-w.snapAge >= boundRefreshNodes {
		w.refreshSnap()
	}
	for _, b := range w.snap {
		if semiring.Gt(pl.sr, b, v) {
			return true
		}
	}
	return false
}

// refreshSnap re-reads the shared antichain: one atomic pointer load,
// no copying — the snapshot slice is immutable once published.
//
//softsoa:hotpath
func (w *wsWorker[T]) refreshSnap() {
	w.snap = *w.sched.shared.cur.Load()
	w.snapAge = w.nodes
}

// sharedBound is the cross-worker incumbent set: a copy-on-write
// antichain of admitted leaf values published through an atomic
// pointer. Readers prune against a consistent snapshot without locks;
// writers CAS-install a merged copy and retry on contention. Every
// member is a real leaf value, so pruning against it is exactly the
// sequential incumbent argument.
type sharedBound[T any] struct {
	sr  semiring.Semiring[T]
	cur atomic.Pointer[[]T]
}

func newSharedBound[T any](sr semiring.Semiring[T]) *sharedBound[T] {
	b := &sharedBound[T]{sr: sr}
	empty := make([]T, 0)
	b.cur.Store(&empty)
	return b
}

// offer merges a locally admitted leaf value into the shared set.
func (b *sharedBound[T]) offer(v T) {
	for {
		old := b.cur.Load()
		vals := *old
		//lint:ignore hotpath CAS copy runs only on incumbent improvement, bounded by antichain growth
		merged := make([]T, 0, len(vals)+1)
		for _, w := range vals {
			if semiring.Gt(b.sr, w, v) || b.sr.Eq(w, v) {
				return // nothing new to learn
			}
			if !semiring.Gt(b.sr, v, w) {
				merged = append(merged, w)
			}
		}
		if len(merged) >= maxIncumbents {
			return // incomparable to a full set; skip (pruning-only loss)
		}
		merged = append(merged, v)
		if b.cur.CompareAndSwap(old, &merged) {
			return
		}
	}
}
