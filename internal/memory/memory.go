// Package memory implements PIPES' adaptive memory management framework:
// memory-consuming operators (joins, group-bys, buffers) subscribe to a
// Manager holding a global byte budget; the manager assigns and
// redistributes budgets at runtime as demand shifts, and when an operator
// exceeds its assignment it applies that subscription's user-defined
// load-shedding strategy [cf. Aurora, 8] — dropping soonest-expiring
// state — trading exact answers for bounded memory (experiment E7).
package memory

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pipes/internal/telemetry/flight"
)

// User is the minimal capability a managed operator must expose.
type User interface {
	Name() string
	// MemoryUsage returns the operator's current footprint in bytes.
	MemoryUsage() int
}

// Shedder is the capability to release state by dropping entries
// (soonest-expiring first, per the SweepArea contract).
type Shedder interface {
	// ShedBytes releases approximately n bytes and returns how many were
	// actually released.
	ShedBytes(n int) int
}

// Strategy reduces a user's footprint by roughly excess bytes and returns
// the bytes actually released (0 if the strategy does not apply).
type Strategy func(u User, excess int) int

// DropState sheds stored entries if the user is a Shedder.
func DropState() Strategy {
	return func(u User, excess int) int {
		if s, ok := u.(Shedder); ok {
			return s.ShedBytes(excess)
		}
		return 0
	}
}

// Subscription is one managed operator. Its fields are atomics because
// the manager's Enforce loop, Redistribute and external readers (monitor,
// tests) run on different goroutines.
type Subscription struct {
	user     User
	strategy Strategy
	weight   float64
	limit    atomic.Int64
	shedB    atomic.Int64
	shedEv   atomic.Int64
}

// Limit returns the currently assigned byte budget.
func (s *Subscription) Limit() int { return int(s.limit.Load()) }

// ShedBytesTotal returns the total bytes this subscription has shed.
func (s *Subscription) ShedBytesTotal() int64 { return s.shedB.Load() }

// ShedEvents returns how often shedding was triggered.
func (s *Subscription) ShedEvents() int64 { return s.shedEv.Load() }

// Manager owns the global budget.
type Manager struct {
	mu    sync.Mutex
	total int
	subs  []*Subscription
}

// NewManager returns a manager with a global budget of total bytes
// (total <= 0 means unlimited: assignments become effectively infinite).
func NewManager(total int) *Manager { return &Manager{total: total} }

// Subscribe registers a user with a shedding strategy and a relative
// weight (>0) governing its budget share, then redistributes.
func (m *Manager) Subscribe(u User, strategy Strategy, weight float64) *Subscription {
	if u == nil {
		panic("memory: nil user")
	}
	if strategy == nil {
		strategy = DropState()
	}
	if weight <= 0 {
		weight = 1
	}
	sub := &Subscription{user: u, strategy: strategy, weight: weight}
	m.mu.Lock()
	m.subs = append(m.subs, sub)
	m.redistributeLocked()
	m.mu.Unlock()
	return sub
}

// Unsubscribe removes u's subscription, if it has one, and redistributes
// its budget.
func (m *Manager) Unsubscribe(u User) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, s := range m.subs {
		if s.user == u {
			m.subs = append(m.subs[:i], m.subs[i+1:]...)
			m.redistributeLocked()
			return
		}
	}
}

// Redistribute recomputes all assignments from current weights and demand.
func (m *Manager) Redistribute() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.redistributeLocked()
}

// usage reads each subscription's footprint once.
func usage(subs []*Subscription) []int {
	use := make([]int, len(subs))
	for i, s := range subs {
		use[i] = s.user.MemoryUsage()
	}
	return use
}

// redistributeLocked assigns limits from a fresh usage reading.
func (m *Manager) redistributeLocked() { m.assignLocked(m.subs, usage(m.subs)) }

// assignLocked gives each subscription its weighted base share, then
// moves surplus (base share unused by low-demand users) to users whose
// demand exceeds their base — the adaptive part: budgets follow demand at
// runtime. use[i] is subs[i]'s footprint.
func (m *Manager) assignLocked(subs []*Subscription, use []int) {
	if len(subs) == 0 {
		return
	}
	if m.total <= 0 {
		for _, s := range subs {
			s.limit.Store(int64(int(^uint(0) >> 1))) // unlimited
		}
		return
	}
	var sumW float64
	for _, s := range subs {
		sumW += s.weight
	}
	surplus := 0
	var needy []int
	deficit := 0
	for i, s := range subs {
		base := int(float64(m.total) * s.weight / sumW)
		if use[i] < base {
			// Demand below share: keep headroom of 2x demand (so the
			// operator can grow), release the rest.
			keep := use[i] * 2
			if keep > base {
				keep = base
			}
			s.limit.Store(int64(keep))
			surplus += base - keep
		} else {
			s.limit.Store(int64(base))
			needy = append(needy, i)
			deficit += use[i] - base
		}
	}
	if surplus > 0 && deficit > 0 {
		for _, i := range needy {
			need := use[i] - subs[i].Limit()
			grant := int(float64(surplus) * float64(need) / float64(deficit))
			subs[i].limit.Add(int64(grant))
		}
	}
}

// Enforce applies each subscription's strategy to any usage above its
// assignment and returns the total bytes shed.
func (m *Manager) Enforce() int {
	m.mu.Lock()
	subs := append([]*Subscription(nil), m.subs...)
	m.mu.Unlock()
	return m.enforce(subs, usage(subs))
}

// enforce sheds what each subs[i] holds above its limit, judged by the
// reading use[i].
func (m *Manager) enforce(subs []*Subscription, use []int) int {
	total := 0
	for i, s := range subs {
		limit := s.Limit()
		if use[i] <= limit {
			continue
		}
		freed := s.strategy(s.user, use[i]-limit)
		s.shedB.Add(int64(freed))
		s.shedEv.Add(1)
		total += freed
		// A shed lands a KindShed event — bytes freed, usage before the
		// shed, the assigned limit — on the flight block the operator
		// carries, if any. An operator the recorder has forgotten keeps
		// its block, where a lookup by name would intern the name again.
		if b, ok := s.user.(interface{ FlightRef() *flight.OpRef }); ok {
			b.FlightRef().Phase(flight.KindShed, int64(freed), int64(use[i]), int64(limit))
		}
	}
	return total
}

// Step is one manager cycle: redistribute then enforce, both judged by one
// reading of each subscription's usage. A second reading would shed what
// an operator gained in between, measured against a limit set before it
// gained it (an empty join's limit is 0). Call it from the runtime loop
// (or Run).
func (m *Manager) Step() int {
	m.mu.Lock()
	subs := append([]*Subscription(nil), m.subs...)
	use := usage(subs)
	m.assignLocked(subs, use)
	m.mu.Unlock()
	return m.enforce(subs, use)
}

// Run steps the manager every interval until stop is closed.
func (m *Manager) Run(stop <-chan struct{}, interval time.Duration) {
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			m.Step()
		}
	}
}

// TotalUsage returns the summed footprint of all subscriptions.
func (m *Manager) TotalUsage() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, s := range m.subs {
		n += s.user.MemoryUsage()
	}
	return n
}

// Budget returns the global budget (0 or negative = unlimited).
func (m *Manager) Budget() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.total
}

// SetBudget changes the global budget at runtime and redistributes.
func (m *Manager) SetBudget(total int) {
	m.mu.Lock()
	m.total = total
	m.redistributeLocked()
	m.mu.Unlock()
}

// SubStats is one subscription's state in a Stats snapshot.
type SubStats struct {
	Name       string
	Usage      int
	Limit      int
	ShedBytes  int64
	ShedEvents int64
}

// Stats is a point-in-time snapshot of the manager for the telemetry
// endpoint: the global budget, summed usage and the per-subscription
// assignments, sorted by name for deterministic scrapes.
type Stats struct {
	Budget     int
	TotalUsage int
	Subs       []SubStats
}

// Stats snapshots the manager state.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	subs := make([]*Subscription, len(m.subs))
	copy(subs, m.subs)
	total := m.total
	m.mu.Unlock()
	st := Stats{Budget: total}
	for _, s := range subs {
		use := s.user.MemoryUsage()
		st.TotalUsage += use
		st.Subs = append(st.Subs, SubStats{
			Name:       s.user.Name(),
			Usage:      use,
			Limit:      s.Limit(),
			ShedBytes:  s.ShedBytesTotal(),
			ShedEvents: s.ShedEvents(),
		})
	}
	sort.Slice(st.Subs, func(i, j int) bool { return st.Subs[i].Name < st.Subs[j].Name })
	return st
}

// Report renders a per-subscription usage table (for cmd/pipesmon).
func (m *Manager) Report() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	subs := make([]*Subscription, len(m.subs))
	copy(subs, m.subs)
	sort.Slice(subs, func(i, j int) bool { return subs[i].user.Name() < subs[j].user.Name() })
	out := ""
	for _, s := range subs {
		out += fmt.Sprintf("%-20s usage=%-10d limit=%-10d shed=%d (%d events)\n",
			s.user.Name(), s.user.MemoryUsage(), s.Limit(), s.ShedBytesTotal(), s.ShedEvents())
	}
	return out
}
