// Package session implements the paper's Algorithm 1: the interactive
// main control loop that repeatedly invokes the incremental optimizer,
// visualizes the cost tradeoffs of the known plans, and reacts to user
// input — refining the resolution when the user is idle, resetting it to
// zero when the user moves the cost bounds, and terminating when the
// user selects a plan.
//
// The Session enforces the invocation policy under which the paper's
// approximation guarantee holds: every bounds change starts a new regime
// at resolution 0, and resolution grows by one per idle iteration up to
// the configured maximum.
package session

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/pareto"
	"repro/internal/plan"
	"repro/internal/query"
)

// Action is a user interaction delivered to the control loop.
type Action int

// The user actions of Figure 1: doing nothing (the optimizer refines),
// dragging the cost bounds, and clicking a plan to execute.
const (
	// None lets the optimizer refine the resolution.
	None Action = iota
	// SetBounds replaces the cost bounds and resets the resolution.
	SetBounds
	// Select picks a plan from the current frontier and ends the session.
	Select
)

// Event is one user interaction.
type Event struct {
	Action Action
	// Bounds is the new bound vector for SetBounds (nil = unbounded).
	Bounds cost.Vector
	// PlanIndex selects a plan from the current frontier for Select.
	PlanIndex int
}

// EventSource supplies user interactions; the control loop calls Next
// once per iteration, after visualizing the current frontier.
type EventSource interface {
	Next(frontier []*plan.Node) Event
}

// Script is a pre-recorded EventSource that replays events in order and
// then keeps answering None (letting the optimizer refine until the
// caller's iteration budget ends).
type Script []Event

// scriptSource tracks replay progress.
type scriptSource struct {
	events []Event
	pos    int
}

// Source returns a replaying EventSource for the script.
func (s Script) Source() EventSource {
	return &scriptSource{events: s}
}

func (s *scriptSource) Next([]*plan.Node) Event {
	if s.pos >= len(s.events) {
		return Event{Action: None}
	}
	e := s.events[s.pos]
	s.pos++
	return e
}

// Record captures one control-loop iteration for instrumentation.
type Record struct {
	// Iteration is the 1-based loop iteration number.
	Iteration int
	// Resolution is the resolution used by the iteration's invocation.
	Resolution int
	// Bounds is the bound vector used (never nil; unbounded = +Inf). The
	// records of one bounds regime share it: read-only.
	Bounds cost.Vector
	// Duration is the optimizer invocation's wall-clock time.
	Duration time.Duration
	// FrontierSize is the number of visualized (published) plans.
	FrontierSize int
	// BoundsChanged reports whether this iteration started a new regime.
	BoundsChanged bool
}

// Session drives interactive optimization of one query.
type Session struct {
	opt     *core.Optimizer
	bounds  cost.Vector
	res     int
	started bool
	records []Record
	// frontier is the published visualization input: the skyline of the
	// root result plans within the current focus (DESIGN.md D20). It is
	// replaced, never written, so readers may keep it without copying.
	frontier []*plan.Node
	// delta is publish's scratch: the root result plans the last step
	// made visible, filtered in place to their skyline.
	delta []*plan.Node
	// Visualize, when non-nil, receives the frontier after every
	// iteration (the paper's Visualize procedure).
	Visualize func(frontier []*plan.Node)
}

// New creates a session for query q with optimizer configuration cfg and
// initial (default) bounds; nil means unbounded.
func New(q *query.Query, cfg core.Config, defaultBounds cost.Vector) (*Session, error) {
	opt, err := core.NewOptimizer(q, cfg)
	if err != nil {
		return nil, err
	}
	return NewWithOptimizer(opt, defaultBounds)
}

// NewWithOptimizer wraps an existing optimizer — typically one restored
// from a core.Snapshot for a warm start — in a fresh session with the
// given initial bounds; nil means unbounded. The session assumes sole
// ownership of the optimizer.
func NewWithOptimizer(opt *core.Optimizer, defaultBounds cost.Vector) (*Session, error) {
	if opt == nil {
		return nil, fmt.Errorf("session: nil optimizer")
	}
	dim := opt.Config().Model.Space().Dim()
	if defaultBounds == nil {
		defaultBounds = cost.Unbounded(dim)
	}
	if defaultBounds.Dim() != dim {
		return nil, fmt.Errorf("session: bounds dim %d, space dim %d", defaultBounds.Dim(), dim)
	}
	return &Session{opt: opt, bounds: defaultBounds.Clone()}, nil
}

// MustNew is New but panics on error.
func MustNew(q *query.Query, cfg core.Config, defaultBounds cost.Vector) *Session {
	s, err := New(q, cfg, defaultBounds)
	if err != nil {
		panic(err)
	}
	return s
}

// Optimizer exposes the underlying incremental optimizer (read-only use:
// statistics, plan-set sizes).
func (s *Session) Optimizer() *core.Optimizer { return s.opt }

// Bounds returns the current bound vector.
func (s *Session) Bounds() cost.Vector { return s.bounds.Clone() }

// Resolution returns the resolution of the most recent invocation, or -1
// before the first Step.
func (s *Session) Resolution() int {
	if !s.started {
		return -1
	}
	return s.res
}

// AtMaxResolution reports whether the session has refined the current
// bounds regime to the maximal resolution, i.e. the frontier has reached
// the target precision α_T and further Steps cannot sharpen it. A
// subsequent SetBounds starts a new regime and makes Steps productive
// again. This is the scheduler's "nothing left to refine" signal.
func (s *Session) AtMaxResolution() bool {
	return s.started && s.res >= s.opt.Config().MaxResolution()
}

// Records returns a copy of the per-iteration instrumentation. The
// Bounds vectors are shared with the session and must not be written.
func (s *Session) Records() []Record {
	return append([]Record(nil), s.records...)
}

// LastDuration returns the optimizer time of the most recent Step (its
// Record's Duration) without copying the records; zero before the first
// Step.
func (s *Session) LastDuration() time.Duration {
	if len(s.records) == 0 {
		return 0
	}
	return s.records[len(s.records)-1].Duration
}

// Frontier returns the current visualization input, as the last Step
// published it: the completed plans within the current bounds and
// resolution that no other such plan dominates, in ascending
// lexicographic cost order. It is nil before the first Step and between
// a bounds change and the Step that follows it. The slice is shared and
// immutable.
func (s *Session) Frontier() []*plan.Node { return s.frontier }

// SetBounds changes the cost bounds; the next Step starts a new regime at
// resolution 0. A nil vector means unbounded.
func (s *Session) SetBounds(b cost.Vector) error {
	dim := s.opt.Config().Model.Space().Dim()
	if b == nil {
		b = cost.Unbounded(dim)
	}
	if b.Dim() != dim {
		return fmt.Errorf("session: bounds dim %d, space dim %d", b.Dim(), dim)
	}
	s.bounds = b.Clone()
	s.started = false // next Step restarts at resolution 0
	s.frontier = nil
	return nil
}

// Step runs one control-loop iteration without user input: invoke the
// optimizer at the current focus, visualize, and schedule the next
// refinement. It returns the published frontier (see Frontier).
func (s *Session) Step() []*plan.Node {
	boundsChanged := !s.started
	// Only a step that leaves r at r_M sees no level the last one did not.
	newLevel := boundsChanged || s.res < s.opt.Config().MaxResolution()
	if s.started {
		if s.res < s.opt.Config().MaxResolution() {
			s.res++
		}
	} else {
		s.res = 0
		s.started = true
	}
	start := time.Now()
	s.opt.Optimize(s.bounds, s.res)
	dur := time.Since(start)
	s.frontier = s.publish(newLevel)
	s.records = append(s.records, Record{
		Iteration:     len(s.records) + 1,
		Resolution:    s.res,
		Bounds:        s.bounds, // replaced by SetBounds, never written
		Duration:      dur,
		FrontierSize:  len(s.frontier),
		BoundsChanged: boundsChanged,
	})
	if s.Visualize != nil {
		s.Visualize(s.frontier)
	}
	return s.frontier
}

// publish returns the skyline of the root result plans within the
// current focus, Res^Q[0..b, 0..r], after the step's invocation. It
// merges the last publication with the skyline of Δ, the plans of
// level r within the bounds that the last publication could not see
// (DESIGN.md D20): all of them when level r has just become visible (a
// regime's first step, where nothing is published yet, or a step that
// raised r), only the invocation's own inserts when r stayed at its
// maximum. Result plans are never removed, within a regime the bounds
// are fixed and r never falls, and an invocation registers results at
// its own level only, so the union is Res^Q[0..b, 0..r]; and the
// skyline of a union is the merge of its parts' skylines.
func (s *Session) publish(newLevel bool) []*plan.Node {
	prev, minEpoch := s.frontier, s.opt.Epoch()
	if newLevel {
		// A restored optimizer that generated nothing up to level r
		// publishes its snapshot's skyline of levels 0..r.
		if f, ok := s.opt.RestoredFrontier(s.bounds, s.res); ok {
			return f
		}
		minEpoch = 0
	}
	s.delta = s.opt.AppendResultsAt(s.delta[:0], s.bounds, s.res, minEpoch)
	delta := pareto.Filter(s.delta)
	if len(delta) == 0 && prev != nil {
		return prev
	}
	// prev is published and delta is scratch: Merge returns a fresh
	// slice.
	return pareto.Merge(prev, delta)
}

// Apply processes one user event against the given frontier: a no-op
// for None, a bounds change (starting a new regime on the next Step)
// for SetBounds, and a terminal plan choice for Select. It returns the
// selected plan and done=true when the event ends the session. Step and
// Apply together form one schedulable control-loop iteration; Run, the
// service scheduler, and the moqod server all drive sessions through
// these two units rather than a private loop.
func (s *Session) Apply(ev Event, frontier []*plan.Node) (selected *plan.Node, done bool, err error) {
	switch ev.Action {
	case None:
		// Refinement continues on the next Step.
		return nil, false, nil
	case SetBounds:
		return nil, false, s.SetBounds(ev.Bounds)
	case Select:
		if len(frontier) == 0 {
			return nil, false, fmt.Errorf("session: select on empty frontier")
		}
		if ev.PlanIndex < 0 || ev.PlanIndex >= len(frontier) {
			return nil, false, fmt.Errorf("session: plan index %d outside frontier of %d",
				ev.PlanIndex, len(frontier))
		}
		return frontier[ev.PlanIndex], true, nil
	default:
		return nil, false, fmt.Errorf("session: unknown action %d", ev.Action)
	}
}

// Run executes the full interactive loop of Algorithm 1: it iterates
// until the event source selects a plan or maxIterations is reached (a
// safeguard; interactive users always select eventually). It returns the
// selected plan, or nil if the iteration budget expired.
func (s *Session) Run(events EventSource, maxIterations int) (*plan.Node, error) {
	if events == nil {
		return nil, fmt.Errorf("session: nil event source")
	}
	if maxIterations < 1 {
		return nil, fmt.Errorf("session: maxIterations %d < 1", maxIterations)
	}
	for iter := 0; iter < maxIterations; iter++ {
		frontier := s.Step()
		selected, done, err := s.Apply(events.Next(frontier), frontier)
		if err != nil {
			return nil, err
		}
		if done {
			return selected, nil
		}
	}
	return nil, nil
}
