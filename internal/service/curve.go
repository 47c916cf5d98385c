package service

import (
	"math"

	"repro/internal/plan"
	"repro/internal/trace"
)

// bestScalar returns the smallest L1 cost scalarization over a
// non-empty frontier — the convergence curve's per-step quality
// signal. Alloc-free: it runs on the step path under the session
// mutex (D13).
func bestScalar(frontier []*plan.Node) float64 {
	best := math.Inf(1)
	for _, n := range frontier {
		if v := n.Cost.Norm1(); v < best {
			best = v
		}
	}
	return best
}

// stepsToEpsilon counts how many curve samples the trace's final
// bounds regime took until its running-best scalarization first came
// within the target-precision factor alpha of the regime's final
// value — the "steps to ε" convergence-speed sample recorded at each
// regime convergence. Returns 0 when the count cannot be trusted: no
// curve samples, or the ring wrapped and dropped the regime's start
// (detectable because no bounds span survived the wrap). Called under
// m.mu, which serializes with appends.
func stepsToEpsilon(tr *trace.Trace, alpha float64) int {
	if tr == nil {
		return 0
	}
	if tr.Wrapped() {
		// The oldest spans are gone. The count is only complete if the
		// final regime began inside the retained window, which a
		// surviving bounds span marks; the first regime's start
		// (creation) never survives a wrap.
		sawBounds := false
		tr.Scan(func(s trace.Span) bool {
			if s.Kind == trace.KindBounds {
				sawBounds = true
				return false
			}
			return true
		})
		if !sawBounds {
			return 0
		}
	}
	// Pass 1: the final regime's best (minimum) scalarization, with the
	// running state reset at each bounds change so only the last regime
	// survives.
	final := math.Inf(1)
	tr.Scan(func(s trace.Span) bool {
		switch s.Kind {
		case trace.KindBounds:
			final = math.Inf(1)
		case trace.KindCurve:
			if v := trace.UnpackCurveScalar(s.Dur); v < final {
				final = v
			}
		}
		return true
	})
	if math.IsInf(final, 1) || math.IsNaN(final) {
		return 0
	}
	if alpha < 1 {
		alpha = 1
	}
	thresh := final * alpha
	// Pass 2: count the regime's curve samples until the running best
	// first dipped to the threshold. At least one sample equals the
	// regime minimum, so a regime with any samples always terminates
	// with steps >= 1.
	steps, n := 0, 0
	done := false
	tr.Scan(func(s trace.Span) bool {
		switch s.Kind {
		case trace.KindBounds:
			steps, n, done = 0, 0, false
		case trace.KindCurve:
			if done {
				return true
			}
			n++
			if trace.UnpackCurveScalar(s.Dur) <= thresh {
				steps, done = n, true
			}
		}
		return true
	})
	if !done {
		return 0
	}
	return steps
}

// CurvePoint is one convergence-curve sample served by
// GET /debug/sessions/{id}/curve: where the session's best
// scalarization stood at one refinement step. Epsilon is the distance
// from the regime's eventual best — non-negative and, because Best is
// a running minimum, monotone non-increasing within a regime.
type CurvePoint struct {
	// AtNS is the sample's offset from session creation.
	AtNS int64 `json:"at_ns"`
	// Regime counts bounds changes before this sample (0 = the
	// creation regime).
	Regime int `json:"regime"`
	// Res is the resolution level the regime had sharpened to.
	Res int `json:"res"`
	// Frontier is the size of the frontier the step published: the
	// non-dominated result plans within the regime's bounds.
	Frontier int `json:"frontier"`
	// Best is the running-minimum L1 scalarization up to this sample.
	Best float64 `json:"best"`
	// Epsilon is Best minus the regime's final Best.
	Epsilon float64 `json:"epsilon"`
}

// Curve is a session's convergence curve, JSON-ready for the debug
// endpoint.
type Curve struct {
	ID         string `json:"id"`
	Provenance string `json:"provenance,omitempty"`
	// Dropped counts trace spans lost to ring wrap-around; a non-zero
	// value means the curve's oldest points are missing.
	Dropped int          `json:"dropped_spans,omitempty"`
	Points  []CurvePoint `json:"points"`
}

// BuildCurve derives the convergence curve from a detached trace:
// curve spans become points carrying the running-best scalarization,
// and a second pass fills in each point's ε-distance to its regime's
// final value. Pure function of the snapshot — safe on live and
// archived traces alike.
func BuildCurve(d trace.Data) Curve {
	c := Curve{ID: d.ID, Provenance: d.Provenance, Dropped: d.Dropped, Points: []CurvePoint{}}
	regime := 0
	best := math.Inf(1)
	for _, s := range d.Spans {
		switch s.Kind {
		case "bounds":
			regime++
			best = math.Inf(1)
		case "curve":
			// Non-finite scalarizations never sample (the step path only
			// samples non-empty frontiers), but a defensive skip keeps
			// the JSON encodable no matter what the ring holds.
			if math.IsInf(s.Scalar, 0) || math.IsNaN(s.Scalar) {
				continue
			}
			if s.Scalar < best {
				best = s.Scalar
			}
			c.Points = append(c.Points, CurvePoint{
				AtNS:     s.AtNS,
				Regime:   regime,
				Res:      s.Res,
				Frontier: s.Frontier,
				Best:     best,
			})
		}
	}
	// Points are in order, so each regime's last Best is its final.
	finals := map[int]float64{}
	for _, p := range c.Points {
		finals[p.Regime] = p.Best
	}
	for i := range c.Points {
		c.Points[i].Epsilon = c.Points[i].Best - finals[c.Points[i].Regime]
	}
	return c
}

// ConvergenceCurve returns the session's convergence curve, from the
// live trace or the finished-session archive (same resolution rules
// as SessionTrace).
func (s *Service) ConvergenceCurve(id string) (Curve, error) {
	d, err := s.SessionTrace(id)
	if err != nil {
		return Curve{}, err
	}
	return BuildCurve(d), nil
}
