package service

import (
	"errors"
	"time"

	"repro/internal/eventlog"
	"repro/internal/store"
	"repro/internal/trace"
)

// ErrDraining reports that the service is draining toward shutdown and
// refuses new sessions. Clients should retry against another node
// (moqod maps this to HTTP 503 with Retry-After).
var ErrDraining = errors.New("service: draining")

// drainPollInterval paces the grace-window wait for in-flight sessions
// to converge. Coarse on purpose: convergence is signalled by state,
// not by the drain, and a 5ms poll costs nothing next to a store flush.
const drainPollInterval = 5 * time.Millisecond

// Draining reports whether Drain has started (it never unstarts).
func (s *Service) Draining() bool { return s.draining.Load() }

// Store exposes the snapshot store (nil when persistence is disabled)
// so the node's transport layer can serve peer-bootstrap exports —
// manifest and segment reads — without the service relaying each call.
func (s *Service) Store() *store.Store { return s.store }

// Drain flips the service into draining — Create refuses immediately
// and permanently — then gives in-flight sessions up to grace to reach
// their target before checkpointing the stragglers: every session still
// mid-refinement has its partial plan state exported through the same
// snapshot path convergence uses (cache put + store write), so a
// restarted or peer-bootstrapped node resumes the refinement warm
// instead of redoing it. Drain does not stop the workers; callers
// follow with Shutdown, which also flushes and closes the store.
//
// Drain is idempotent and monotonic: the first caller runs it, every
// later caller blocks until it finishes and returns the same counts.
// converged counts live sessions that reached their target (before or
// during the grace window); checkpointed counts sessions persisted
// mid-refinement.
func (s *Service) Drain(grace time.Duration) (converged, checkpointed int) {
	s.drainMu.Lock()
	if s.drainDone != nil {
		done := s.drainDone
		s.drainMu.Unlock()
		<-done
		return int(s.obs.drainConverged.Value()), int(s.obs.drainCheckpointed.Value())
	}
	done := make(chan struct{})
	s.drainDone = done
	s.drainMu.Unlock()
	defer close(done)

	// Refuse new sessions before looking at existing ones: a Create
	// either registered its session before this flip or sees
	// ErrDraining (admitMu), so the sweep below observes a set of
	// sessions that can only shrink.
	s.admitMu.Lock()
	s.draining.Store(true)
	s.admitMu.Unlock()
	drainStart := time.Now()
	s.cfg.Events.Emit(eventlog.LevelInfo, "service", "drain started",
		eventlog.Fdur("grace", grace))

	// Grace window: let the scheduler finish what it can. Sessions that
	// converge here need no checkpoint — their convergence export
	// already persisted the full-resolution snapshot.
	deadline := time.Now().Add(grace)
	for grace > 0 && s.anyRefining() && time.Now().Before(deadline) {
		time.Sleep(drainPollInterval)
	}

	// Checkpoint the stragglers. Taking m.mu serializes against the
	// scheduler's step loop, so each snapshot is taken at a step
	// boundary — the same consistency the convergence export gets.
	for _, m := range s.mgr.all() {
		m.mu.Lock()
		switch {
		case m.state == Refining:
			if s.checkpointLocked(m) {
				checkpointed++
			}
		case m.state == AtTarget:
			converged++
		}
		m.mu.Unlock()
	}
	s.obs.drainConverged.Add(uint64(converged))
	s.obs.drainCheckpointed.Add(uint64(checkpointed))
	s.cfg.Events.Emit(eventlog.LevelInfo, "service", "drain finished",
		eventlog.Fint("converged", int64(converged)),
		eventlog.Fint("checkpointed", int64(checkpointed)),
		eventlog.Fdur("took", time.Since(drainStart)))
	return converged, checkpointed
}

// anyRefining reports whether any session is still Refining.
func (s *Service) anyRefining() bool {
	for _, m := range s.mgr.all() {
		m.mu.Lock()
		refining := m.state == Refining
		m.mu.Unlock()
		if refining {
			return true
		}
	}
	return false
}

// checkpointLocked exports a mid-refinement session's partial plan
// state through the convergence snapshot path, with a blocking store
// write — a drain must not shed the very records it exists to save. A
// restore of the partial snapshot resumes refinement over the
// checkpointed optimizer state and deterministically reaches the same
// final frontier a cold run would. Callers hold m.mu.
func (s *Service) checkpointLocked(m *managed) bool {
	if s.cache == nil || m.sess == nil {
		return false
	}
	t0 := time.Now()
	snap := m.sess.Optimizer().Snapshot()
	if snap == nil {
		// A cold session the workers have not stepped yet holds no
		// plan state to save.
		return false
	}
	snap.SetStatsEpoch(m.statsEpoch)
	s.admit(m.key, snap, true)
	// m.snapshotted stays as-is: if the workers push this session to
	// convergence between the checkpoint and Shutdown, the convergence
	// export should still run and upgrade the partial entry to the
	// full-resolution one.
	if m.trace != nil {
		m.trace.Append(trace.KindCheckpoint, t0, time.Since(t0), int64(m.steps))
	}
	return true
}
