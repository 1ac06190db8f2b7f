// Package vindicate checks whether a reported race is a true predictable
// race by constructing a witness: a predicted trace (§2.2) in which the two
// conflicting accesses are adjacent. It plays the role of prior work's
// VindicateRace algorithm (Roemer et al. 2018), consuming the event
// constraint graph built by the "w/G" analyses.
//
// The algorithm is a constraint-guided greedy scheduler with random
// restarts rather than prior work's full search; like VindicateRace it is
// sound but incomplete: a returned witness always passes an independent
// predicted-trace verifier (so a vindicated race is certainly predictable),
// while failure to find a witness leaves the race unverified.
//
// Cost model: New indexes the trace once (per-thread event lists,
// last writers, matching releases, per-variable access lists), in time and
// space linear in the trace. Every later call pays only for its own work:
// a pair's cone is computed in time linear in the cone, and each restart
// of the scheduler costs the steps it takes — its scratch state is sized
// by threads, locks and variables, reused across restarts, and reset
// through lists of what the restart touched, never by a pass over the
// trace. Vindicating every race of a trace therefore indexes it once.
package vindicate

import (
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/graph"
	"repro/internal/trace"
)

// Result describes a vindication attempt.
type Result struct {
	// Vindicated reports whether a verified witness was found.
	Vindicated bool
	// Witness is the predicted trace exposing the race (nil unless
	// Vindicated). Its last two events are the racing pair.
	Witness []trace.Event
	// E1, E2 are the trace indices of the racing accesses.
	E1, E2 int
	// Reason explains a failure.
	Reason string
	// WriteReadGap marks the known write→read limitation: the detecting
	// access is a read whose conflicting writes are all ordered before it
	// by the constraint graph's last-writer edges, so the witness search
	// is structurally unable to place the pair adjacent — the race stays
	// unverified for a reason that is a property of the search, not
	// evidence against the race.
	WriteReadGap bool
}

// reasonGraphOrdered is Pair's failure reason when the cone closure pulls
// one racing access into the other's mandatory prefix.
const reasonGraphOrdered = "accesses are ordered by the constraint graph"

// ReasonWriteReadGap is the Reason reported with Result.WriteReadGap: no
// witness can end with a write→read pair whose read is tied to that write
// by its last-writer edge. Racing reads receive hard graph edges from their
// last writer (the predicted-trace definition requires every non-racing
// read to see its original writer, and the graph encodes that uniformly),
// so the cone of the read always swallows the write and the pair is
// reported as graph-ordered even though it races.
const ReasonWriteReadGap = "write→read pair: the racing read's last-writer edge orders every " +
	"conflicting write before it in the constraint graph, so the witness search cannot " +
	"make the pair adjacent (known gap; the race is unverified, not refuted)"

// Options tunes the search.
type Options struct {
	// Restarts is the number of randomized scheduling attempts (default 32).
	Restarts int
	// Seed makes the search deterministic.
	Seed int64
}

// FindPrior locates candidate earlier accesses conflicting with the access
// at index e2, latest first.
func FindPrior(tr *trace.Trace, e2 int) []int { return New(tr, nil).FindPrior(e2) }

// Race attempts to vindicate the race whose detecting access is at trace
// index e2. It indexes tr for this one call; use New to vindicate several
// races of one trace.
func Race(tr *trace.Trace, g *graph.Graph, e2 int, opts Options) Result {
	return New(tr, g).Race(e2, opts)
}

// Pair attempts to vindicate the specific conflicting pair (e1, e2). It
// indexes tr for this one call; use New to vindicate several pairs of one
// trace.
func Pair(tr *trace.Trace, g *graph.Graph, e1, e2 int, opts Options) Result {
	return New(tr, g).Pair(e1, e2, opts)
}

// Vindicator holds the index of one trace and its constraint graph, and the
// scratch state the witness search reuses from call to call. Build it once
// per trace with New, then call Race or Pair per race.
//
// A Vindicator is not safe for concurrent use: every call rewrites its
// scratch state. Results never alias that state.
type Vindicator struct {
	tr *trace.Trace
	g  *graph.Graph

	// byThread lists event indices per thread in trace order.
	byThread [][]int32
	// tid[i] is event i's thread and posInThread[i] its rank within it.
	tid         []trace.Tid
	posInThread []int32
	// lastWriter[i] is, for a read event i, the index of its last writer in
	// the original trace (-1 if none).
	lastWriter []int32
	// matchRel[i] is, for an acquire event i, the index of its matching
	// release (-1 if the critical section never closes).
	matchRel []int32
	// accesses[x] lists the reads and writes of variable x in trace order.
	accesses [][]int32

	// Scratch of cone: the per-thread cut and the closure's work stack.
	// For lock completion, lockFirst[m] is the first thread with an
	// included acquire of m (-1 if none), lockShared[m] whether a second
	// thread has one too, and pending[m] the included acquires of m whose
	// releases are pulled in once m is shared. coneLocks lists the locks
	// whose entries are set.
	cut        []int32
	stack      []int32
	lockFirst  []int32
	lockShared []bool
	pending    [][]int32
	coneLocks  []uint32

	// Scratch of schedule: per-thread cursors into the cut (an event is
	// scheduled iff its rank is below its thread's cursor) and head events,
	// the lock owners (-1 if free) and the witness's last writer per
	// variable (-1 if none), each reset through the touched list beside
	// it, the candidate threads of a step, and the witness being built.
	ptr         []int32
	head        []headEvent
	lockOwner   []int32
	lockTouched []uint32
	lastW       []int32
	varTouched  []uint32
	cand        []int
	out         []trace.Event

	// rng is reseeded per pair, so each pair draws the same sequence
	// whatever the Vindicator searched before.
	rng *rand.Rand
}

// headEvent caches what the scheduler checks of a thread's next event, so
// a step reads one dense record per thread.
type headEvent struct {
	ev    trace.Event
	i     int32
	lw    int32   // lastWriter[i]
	preds []int32 // graph predecessors of i
}

// New indexes tr and its constraint graph g for vindication. g may be nil
// when the Vindicator is only used for FindPrior.
func New(tr *trace.Trace, g *graph.Graph) *Vindicator {
	n := tr.Len()
	v := &Vindicator{
		tr:          tr,
		g:           g,
		tid:         make([]trace.Tid, n),
		posInThread: make([]int32, n),
		lastWriter:  make([]int32, n),
		matchRel:    make([]int32, n),
		cut:         make([]int32, tr.Threads),
		lockFirst:   make([]int32, tr.Locks),
		lockShared:  make([]bool, tr.Locks),
		pending:     make([][]int32, tr.Locks),
		ptr:         make([]int32, tr.Threads),
		head:        make([]headEvent, tr.Threads),
		lockOwner:   make([]int32, tr.Locks),
		lastW:       make([]int32, tr.Vars),
		rng:         rand.New(rand.NewSource(0)),
	}
	for i := range v.lockFirst {
		v.lockFirst[i] = -1
		v.lockOwner[i] = -1
	}
	for i := range v.lastW {
		v.lastW[i] = -1
	}

	// Size the per-thread and per-variable lists exactly, then fill them
	// as views of one backing array each.
	perThread := make([]int32, tr.Threads)
	perVar := make([]int32, tr.Vars)
	accessCount := 0
	for _, e := range tr.Events {
		perThread[e.T]++
		if e.Op.IsAccess() {
			perVar[e.Targ]++
			accessCount++
		}
	}
	v.byThread = carve(make([]int32, n), perThread)
	v.accesses = carve(make([]int32, accessCount), perVar)

	lastW := make([]int32, tr.Vars)
	for i := range lastW {
		lastW[i] = -1
	}
	openAcq := make([][]int32, tr.Locks) // stack per lock (depth ≤ 1 per well-formedness)
	for i, e := range tr.Events {
		v.tid[i] = e.T
		v.posInThread[i] = int32(len(v.byThread[e.T]))
		v.byThread[e.T] = append(v.byThread[e.T], int32(i))
		v.lastWriter[i] = -1
		v.matchRel[i] = -1
		switch e.Op {
		case trace.OpRead:
			v.lastWriter[i] = lastW[e.Targ]
			v.accesses[e.Targ] = append(v.accesses[e.Targ], int32(i))
		case trace.OpWrite:
			lastW[e.Targ] = int32(i)
			v.accesses[e.Targ] = append(v.accesses[e.Targ], int32(i))
		case trace.OpAcquire:
			openAcq[e.Targ] = append(openAcq[e.Targ], int32(i))
		case trace.OpRelease:
			st := openAcq[e.Targ]
			v.matchRel[st[len(st)-1]] = int32(i)
			openAcq[e.Targ] = st[:len(st)-1]
		}
	}
	return v
}

// carve splits backing into consecutive empty slices with the given
// capacities.
func carve(backing []int32, caps []int32) [][]int32 {
	out := make([][]int32, len(caps))
	off := int32(0)
	for k, c := range caps {
		out[k] = backing[off : off : off+c]
		off += c
	}
	return out
}

// FindPrior locates candidate earlier accesses conflicting with the access
// at index e2, latest first.
func (v *Vindicator) FindPrior(e2 int) []int {
	ev2 := v.tr.Events[e2]
	if !ev2.Op.IsAccess() {
		return nil
	}
	acc := v.accesses[ev2.Targ]
	k, _ := slices.BinarySearch(acc, int32(e2))
	var out []int
	for _, i := range slices.Backward(acc[:k]) {
		e := v.tr.Events[i]
		if e.T != ev2.T && (e.Op == trace.OpWrite || ev2.Op == trace.OpWrite) {
			out = append(out, int(i))
		}
	}
	return out
}

// Race attempts to vindicate the race whose detecting access is at trace
// index e2, trying each conflicting prior access in turn. A failure on a
// racing read whose candidate writes were all graph-ordered before it is
// flagged as the write→read gap (Result.WriteReadGap) rather than left as
// a silent miss.
func (v *Vindicator) Race(e2 int, opts Options) Result {
	cands := v.FindPrior(e2)
	ordered := 0
	for _, e1 := range cands {
		r := v.Pair(e1, e2, opts)
		if r.Vindicated {
			return r
		}
		if r.Reason == reasonGraphOrdered {
			ordered++
		}
	}
	res := Result{E2: e2, Reason: "no conflicting prior access could be witnessed"}
	if v.tr.Events[e2].Op == trace.OpRead && len(cands) > 0 && ordered == len(cands) {
		res.WriteReadGap = true
		res.Reason = ReasonWriteReadGap
	}
	return res
}

// Pair attempts to vindicate the specific conflicting pair (e1, e2).
func (v *Vindicator) Pair(e1, e2 int, opts Options) Result {
	if opts.Restarts <= 0 {
		opts.Restarts = 32
	}
	res := Result{E1: e1, E2: e2}
	a, b := v.tr.Events[e1], v.tr.Events[e2]
	if a.T == b.T || a.Targ != b.Targ || !a.Op.IsAccess() || !b.Op.IsAccess() ||
		(a.Op != trace.OpWrite && b.Op != trace.OpWrite) {
		res.Reason = "events do not conflict"
		return res
	}

	if !v.cone(e1, e2) {
		res.Reason = reasonGraphOrdered
		return res
	}
	// The racing threads may not hold a common lock at the race.
	if m, clash := v.commonHeldLock(e1, e2); clash {
		res.Reason = fmt.Sprintf("racing accesses both inside critical sections on lock %d", m)
		return res
	}

	v.rng.Seed(opts.Seed + 1)
	for try := 0; try < opts.Restarts; try++ {
		if v.schedule(e1, e2) {
			if err := v.verify(v.out, e1, e2); err != nil {
				// The verifier is the soundness gate; a schedule that fails
				// it is discarded.
				continue
			}
			res.Vindicated = true
			res.Witness = slices.Clone(v.out)
			return res
		}
	}
	res.Reason = "no legal reordering found within restart budget"
	return res
}

// cone computes into v.cut, per thread, the prefix of events that must
// appear in any witness for (e1, e2): the closure of the racing accesses'
// predecessors under program order, the constraint graph's cross-thread
// edges, last-writer dependencies, and lock completion (an included
// acquire whose lock another thread's included critical section also uses
// needs its release, and with it the release's program-order prefix,
// unless its critical section contains a racing access). v.cut[t] is the
// number of t-events included. The cut is the least set closed under
// these rules, so the order in which they are applied does not matter.
// Returns false if the closure pulls e1 or e2 in (the pair is ordered, so
// no witness exists with them last).
func (v *Vindicator) cone(e1, e2 int) bool {
	cut := v.cut
	clear(cut)
	for _, m := range v.coneLocks {
		v.lockFirst[m] = -1
		v.lockShared[m] = false
		v.pending[m] = v.pending[m][:0]
	}
	v.coneLocks = v.coneLocks[:0]

	v.stack = v.stack[:0]
	// Seed: strict predecessors of the racing accesses.
	for _, e := range [2]int{e1, e2} {
		if p := v.posInThread[e]; p > 0 {
			v.need(v.byThread[v.tid[e]][p-1])
		}
		for _, pr := range v.g.Pred(int32(e)) {
			v.need(pr)
		}
	}

	for len(v.stack) > 0 {
		i := v.stack[len(v.stack)-1]
		v.stack = v.stack[:len(v.stack)-1]
		t := v.tid[i]
		from, p := cut[t], v.posInThread[i]
		if p < from {
			continue
		}
		// Include t's events [from .. p] and chase their dependencies.
		cut[t] = p + 1
		for _, j := range v.byThread[t][from : p+1] {
			for _, pr := range v.g.Pred(j) {
				v.need(pr)
			}
			if w := v.lastWriter[j]; w >= 0 {
				v.need(w)
			}
			if e := v.tr.Events[j]; e.Op == trace.OpAcquire {
				v.includeAcquire(j, e, e1, e2)
			}
		}
	}

	// If closure swallowed a racing access, the pair is graph-ordered.
	return v.posInThread[e1] >= cut[v.tid[e1]] && v.posInThread[e2] >= cut[v.tid[e2]]
}

// need pushes event i, standing for its program-order prefix, onto the
// cone's work stack unless the cut already includes it.
func (v *Vindicator) need(i int32) {
	if v.posInThread[i] >= v.cut[v.tid[i]] {
		v.stack = append(v.stack, i)
	}
}

// includeAcquire applies lock completion to acquire j (event e) as it
// joins the cut: once two threads' included prefixes both acquire the
// lock, every included critical section on it must close inside the cut,
// except one containing a racing access.
func (v *Vindicator) includeAcquire(j int32, e trace.Event, e1, e2 int) {
	m := e.Targ
	switch first := v.lockFirst[m]; {
	case first < 0:
		v.lockFirst[m] = int32(e.T)
		v.coneLocks = append(v.coneLocks, m)
	case first != int32(e.T) && !v.lockShared[m]:
		v.lockShared[m] = true
		for _, a := range v.pending[m] {
			v.need(v.matchRel[a])
		}
		v.pending[m] = v.pending[m][:0]
	}
	rel := v.matchRel[j]
	if rel < 0 || v.holdsRacing(j, rel, e.T, e1) || v.holdsRacing(j, rel, e.T, e2) {
		return
	}
	if v.lockShared[m] {
		v.need(rel)
	} else {
		v.pending[m] = append(v.pending[m], j)
	}
}

// holdsRacing reports whether thread t's critical section from acq to rel
// contains the racing access e.
func (v *Vindicator) holdsRacing(acq, rel int32, t trace.Tid, e int) bool {
	return int(acq) <= e && e <= int(rel) && v.tid[e] == t
}

// commonHeldLock reports a lock held by both racing threads at their
// accesses (which makes adjacency impossible).
func (v *Vindicator) commonHeldLock(e1, e2 int) (uint32, bool) {
	h1 := v.heldAt(e1)
	for _, m := range v.heldAt(e2) {
		if slices.Contains(h1, m) {
			return m, true
		}
	}
	return 0, false
}

// heldAt lists the locks e's thread holds just before e.
func (v *Vindicator) heldAt(e int) []uint32 {
	var held []uint32
	for _, j := range v.byThread[v.tid[e]][:v.posInThread[e]] {
		switch ev := v.tr.Events[j]; ev.Op {
		case trace.OpAcquire:
			held = append(held, ev.Targ)
		case trace.OpRelease:
			if k := slices.Index(held, ev.Targ); k >= 0 {
				held = slices.Delete(held, k, k+1)
			}
		}
	}
	return held
}

// schedule greedily linearizes the cone in v.cut plus the racing pair into
// v.out, returning whether it got through. Each step picks a random
// enabled thread, drawing once from v.rng among the candidate threads in
// ascending id; an event is enabled when its graph predecessors are
// scheduled, its lock (for acquires) is free, and (for reads) its original
// last writer is the witness's current last writer.
func (v *Vindicator) schedule(e1, e2 int) bool {
	cut, ptr := v.cut, v.ptr
	clear(ptr)
	for _, m := range v.lockTouched {
		v.lockOwner[m] = -1
	}
	v.lockTouched = v.lockTouched[:0]
	for _, x := range v.varTouched {
		v.lastW[x] = -1
	}
	v.varTouched = v.varTouched[:0]
	out := v.out[:0]

	total := 0
	for t, c := range cut {
		total += int(c)
		if c > 0 {
			v.loadHead(t)
		}
	}

	for emitted := 0; emitted < total; emitted++ {
		// Candidate threads whose next cone event is enabled.
		cand := v.cand[:0]
		for t, c := range cut {
			if ptr[t] < c && v.headEnabled(&v.head[t]) {
				cand = append(cand, t)
			}
		}
		v.cand = cand
		if len(cand) == 0 {
			v.out = out
			return false // stuck: constraint deadlock under this order
		}
		t := cand[v.rng.Intn(len(cand))]
		h := &v.head[t]
		out = append(out, h.ev)
		switch h.ev.Op {
		case trace.OpAcquire:
			v.lockOwner[h.ev.Targ] = int32(t)
			v.lockTouched = append(v.lockTouched, h.ev.Targ)
		case trace.OpRelease:
			v.lockOwner[h.ev.Targ] = -1
		case trace.OpWrite:
			if v.lastW[h.ev.Targ] < 0 {
				v.varTouched = append(v.varTouched, h.ev.Targ)
			}
			v.lastW[h.ev.Targ] = h.i
		}
		ptr[t]++
		if ptr[t] < cut[t] {
			v.loadHead(t)
		}
	}
	// Finally the racing pair: both must be co-enabled in this state. The
	// formal race definition asks only that both be *about to execute*, so
	// a racing read is exempt from the last-writer rule, and accesses take
	// no locks: emitting e1 cannot disable e2.
	if !v.predsScheduled(v.g.Pred(int32(e1))) || !v.predsScheduled(v.g.Pred(int32(e2))) {
		v.out = out
		return false
	}
	v.out = append(out, v.tr.Events[e1], v.tr.Events[e2])
	return true
}

// loadHead caches thread t's next event, at its cursor.
func (v *Vindicator) loadHead(t int) {
	i := v.byThread[t][v.ptr[t]]
	v.head[t] = headEvent{ev: v.tr.Events[i], i: i, lw: v.lastWriter[i], preds: v.g.Pred(i)}
}

// headEnabled reports whether a thread's head event can be scheduled next.
func (v *Vindicator) headEnabled(h *headEvent) bool {
	switch h.ev.Op {
	case trace.OpAcquire:
		if v.lockOwner[h.ev.Targ] != -1 {
			return false
		}
	case trace.OpRead:
		if v.lastW[h.ev.Targ] != h.lw {
			return false
		}
	}
	return v.predsScheduled(h.preds)
}

// predsScheduled reports whether every event of preds is scheduled.
func (v *Vindicator) predsScheduled(preds []int32) bool {
	for _, pr := range preds {
		if v.posInThread[pr] >= v.ptr[v.tid[pr]] {
			return false
		}
	}
	return true
}

// Verify independently checks that witness is a predicted trace of tr
// exposing a race between tr's events e1 and e2: witness events are a
// per-thread program-order prefix-respecting subsequence of tr, locking is
// well formed, every read has the same last writer as in tr, and the final
// two events are the conflicting pair with no intervening event.
func Verify(tr *trace.Trace, witness []trace.Event, e1, e2 int) error {
	return New(tr, nil).verify(witness, e1, e2)
}

func (v *Vindicator) verify(witness []trace.Event, e1, e2 int) error {
	tr := v.tr
	if len(witness) < 2 {
		return fmt.Errorf("vindicate: witness too short")
	}

	// Map witness events back to trace indices: per-thread subsequence
	// matching (greedy — witness events must appear in each thread's
	// original order).
	next := make([]int32, tr.Threads)
	idxOf := make([]int32, len(witness))
	for wi, e := range witness {
		t := e.T
		found := int32(-1)
		for r := next[t]; r < int32(len(v.byThread[t])); r++ {
			j := v.byThread[t][r]
			if tr.Events[j] == e {
				found = j
				next[t] = r + 1
				break
			}
		}
		if found < 0 {
			return fmt.Errorf("vindicate: witness event %d (%v) is not a program-order subsequence", wi, e)
		}
		idxOf[wi] = found
	}
	// The paper's predicted-trace definition requires per-thread *prefixes*
	// implicitly via PO preservation only; we additionally scheduled
	// prefixes, but verification only demands PO order, checked above.

	// Well-formed locking.
	owner := make(map[uint32]trace.Tid)
	for wi, e := range witness {
		switch e.Op {
		case trace.OpAcquire:
			if _, held := owner[e.Targ]; held {
				return fmt.Errorf("vindicate: witness event %d reacquires held lock", wi)
			}
			owner[e.Targ] = e.T
		case trace.OpRelease:
			if owner[e.Targ] != e.T {
				return fmt.Errorf("vindicate: witness event %d releases unheld lock", wi)
			}
			delete(owner, e.Targ)
		}
	}

	// Same last writer for every read. The final two events are the racing
	// pair, which the formal definition only requires to be co-enabled —
	// they do not "execute", so a racing read is exempt (its value is
	// exactly what the race would corrupt).
	lastW := make(map[uint32]int32)
	for wi, e := range witness {
		i := idxOf[wi]
		switch e.Op {
		case trace.OpRead:
			if wi >= len(witness)-2 {
				continue
			}
			want := v.lastWriter[i]
			got, ok := lastW[e.Targ]
			if !ok {
				got = -1
			}
			if got != want {
				return fmt.Errorf("vindicate: witness read %d has last writer %d, original %d", wi, got, want)
			}
		case trace.OpWrite:
			lastW[e.Targ] = i
		}
	}

	// The racing pair must be the final two events.
	if idxOf[len(witness)-2] != int32(e1) || idxOf[len(witness)-1] != int32(e2) {
		return fmt.Errorf("vindicate: witness does not end with the racing pair")
	}
	a, b := tr.Events[e1], tr.Events[e2]
	if a.T == b.T || a.Targ != b.Targ ||
		(a.Op != trace.OpWrite && b.Op != trace.OpWrite) || !a.Op.IsAccess() || !b.Op.IsAccess() {
		return fmt.Errorf("vindicate: final pair does not conflict")
	}
	return nil
}
