// Package nexmark implements the paper's second demonstration scenario: a
// native Go equivalent of the NEXMark online-auction benchmark [Tucker et
// al., 18]. A configurable generator emits the benchmark's event mix —
// people registering, auctions opening and closing, bids arriving — in
// timestamp order with the standard 1:3:46 person:auction:bid
// proportions, and a persistent Store holds the person/auction tables so
// queries can gracefully combine data-driven streams with demand-driven
// relation access (stream–relation joins), exactly as demonstrated.
// NEXMark's XML transport is incidental and replaced by Go values.
package nexmark

import (
	"fmt"
	"math/rand"
	"sync"

	"pipes/internal/cql"
	"pipes/internal/cursor"
	"pipes/internal/pubsub"
	"pipes/internal/temporal"
)

// Person is a registered user.
type Person struct {
	ID    int
	Name  string
	City  string
	State string
}

// Auction is an item put up for sale.
type Auction struct {
	ID         int
	Seller     int // Person.ID
	ItemName   string
	Category   int
	InitialBid float64
	Opens      temporal.Time
	Expires    temporal.Time
}

// Bid is one bid on an auction.
type Bid struct {
	Auction int // Auction.ID
	Bidder  int // Person.ID
	Price   float64
	Time    temporal.Time
}

// EventKind tags generator output.
type EventKind int

// Event kinds in the NEXMark mix.
const (
	EvPerson EventKind = iota
	EvAuction
	EvBid
)

// Event is one generated occurrence.
type Event struct {
	Kind    EventKind
	Time    temporal.Time
	Person  Person
	Auction Auction
	Bid     Bid
}

// Config parameterises the generator.
type Config struct {
	Seed      int64
	MaxEvents int
	// Proportions of the event mix; defaults to NEXMark's 1:3:46.
	PersonShare, AuctionShare, BidShare int
	// MeanGapMS is the mean inter-event gap in milliseconds (default 10).
	MeanGapMS float64
	// Categories is the number of auction categories (default 10).
	Categories int
}

func (c Config) withDefaults() Config {
	if c.PersonShare <= 0 && c.AuctionShare <= 0 && c.BidShare <= 0 {
		c.PersonShare, c.AuctionShare, c.BidShare = 1, 3, 46
	}
	if c.MeanGapMS <= 0 {
		c.MeanGapMS = 10
	}
	if c.Categories <= 0 {
		c.Categories = 10
	}
	return c
}

var firstNames = []string{"ann", "bob", "carla", "dan", "eve", "fred", "gina", "hal", "iris", "joe"}
var cities = []string{"portland", "salem", "eugene", "bend", "medford"}
var states = []string{"OR", "WA", "CA", "ID"}
var items = []string{"vase", "lamp", "chair", "clock", "painting", "rug", "mirror", "desk"}

// Generator emits the auction event stream; it is also the authority for
// assigned IDs.
type Generator struct {
	cfg      Config
	rng      *rand.Rand
	now      temporal.Time
	count    int
	nextPID  int
	nextAID  int
	persons  []int // live person IDs
	auctions []int // open auction IDs
	store    *Store
}

// NewGenerator returns a deterministic generator writing persons and
// auctions into store (pass nil to skip persistence).
func NewGenerator(cfg Config, store *Store) *Generator {
	cfg = cfg.withDefaults()
	if store == nil {
		store = NewStore()
	}
	g := &Generator{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed)), store: store}
	// Seed a few people and auctions so early bids have targets.
	for i := 0; i < 5; i++ {
		g.emitPerson()
	}
	for i := 0; i < 5; i++ {
		g.emitAuction()
	}
	return g
}

// Store returns the persistent side of the scenario.
func (g *Generator) Store() *Store { return g.store }

// Next returns the next event in timestamp order.
func (g *Generator) Next() (Event, bool) {
	if g.cfg.MaxEvents > 0 && g.count >= g.cfg.MaxEvents {
		return Event{}, false
	}
	g.count++
	gap := g.rng.ExpFloat64() * g.cfg.MeanGapMS
	if gap < 1 {
		gap = 1
	}
	g.now += temporal.Time(gap)

	total := g.cfg.PersonShare + g.cfg.AuctionShare + g.cfg.BidShare
	pick := g.rng.Intn(total)
	switch {
	case pick < g.cfg.PersonShare:
		return g.emitPerson(), true
	case pick < g.cfg.PersonShare+g.cfg.AuctionShare:
		return g.emitAuction(), true
	default:
		return g.emitBid(), true
	}
}

func (g *Generator) emitPerson() Event {
	p := Person{
		ID:    g.nextPID,
		Name:  fmt.Sprintf("%s_%d", firstNames[g.rng.Intn(len(firstNames))], g.nextPID),
		City:  cities[g.rng.Intn(len(cities))],
		State: states[g.rng.Intn(len(states))],
	}
	g.nextPID++
	g.persons = append(g.persons, p.ID)
	g.store.AddPerson(p)
	return Event{Kind: EvPerson, Time: g.now, Person: p}
}

func (g *Generator) emitAuction() Event {
	a := Auction{
		ID:         g.nextAID,
		Seller:     g.persons[g.rng.Intn(len(g.persons))],
		ItemName:   items[g.rng.Intn(len(items))],
		Category:   g.rng.Intn(g.cfg.Categories),
		InitialBid: 1 + g.rng.Float64()*99,
		Opens:      g.now,
		Expires:    g.now + temporal.Time(60_000+g.rng.Intn(600_000)),
	}
	g.nextAID++
	g.auctions = append(g.auctions, a.ID)
	g.store.AddAuction(a)
	return Event{Kind: EvAuction, Time: g.now, Auction: a}
}

func (g *Generator) emitBid() Event {
	b := Bid{
		Auction: g.auctions[g.rng.Intn(len(g.auctions))],
		Bidder:  g.persons[g.rng.Intn(len(g.persons))],
		Price:   1 + g.rng.Float64()*999,
		Time:    g.now,
	}
	return Event{Kind: EvBid, Time: g.now, Bid: b}
}

// BidTuple converts a bid for the CQL catalog.
func BidTuple(b Bid) cql.Tuple {
	return cql.Tuple{"auction": b.Auction, "bidder": b.Bidder, "price": b.Price}
}

// PersonTuple converts a person for the CQL catalog.
func PersonTuple(p Person) cql.Tuple {
	return cql.Tuple{"id": p.ID, "name": p.Name, "city": p.City, "state": p.State}
}

// AuctionTuple converts an auction for the CQL catalog.
func AuctionTuple(a Auction) cql.Tuple {
	return cql.Tuple{"id": a.ID, "seller": a.Seller, "item": a.ItemName,
		"category": a.Category, "initial": a.InitialBid}
}

// BidSource returns an emitter publishing only the bid events as chronon
// tuples (the usual query input).
func (g *Generator) BidSource(name string) *pubsub.FuncSource {
	return pubsub.NewFuncSource(name, func() (temporal.Element, bool) {
		for {
			ev, ok := g.Next()
			if !ok {
				return temporal.Element{}, false
			}
			if ev.Kind == EvBid {
				return temporal.At(BidTuple(ev.Bid), ev.Time), true
			}
		}
	})
}

// Store is the persistent person/auction side of the scenario, accessed
// demand-driven via cursors (XXL-style) or published into the graph as a
// relation.
type Store struct {
	mu       sync.RWMutex
	persons  map[int]Person
	auctions map[int]Auction
	pOrder   []int
	aOrder   []int
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{persons: map[int]Person{}, auctions: map[int]Auction{}}
}

// AddPerson inserts or replaces a person.
func (s *Store) AddPerson(p Person) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.persons[p.ID]; !ok {
		s.pOrder = append(s.pOrder, p.ID)
	}
	s.persons[p.ID] = p
}

// AddAuction inserts or replaces an auction.
func (s *Store) AddAuction(a Auction) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.auctions[a.ID]; !ok {
		s.aOrder = append(s.aOrder, a.ID)
	}
	s.auctions[a.ID] = a
}

// Person looks up a person by ID.
func (s *Store) Person(id int) (Person, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	p, ok := s.persons[id]
	return p, ok
}

// Auction looks up an auction by ID.
func (s *Store) Auction(id int) (Auction, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	a, ok := s.auctions[id]
	return a, ok
}

// PersonCount returns the number of stored persons.
func (s *Store) PersonCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.persons)
}

// PersonsCursor iterates the person table in insertion order as tuples.
func (s *Store) PersonsCursor() cursor.Cursor {
	s.mu.RLock()
	ids := append([]int{}, s.pOrder...)
	s.mu.RUnlock()
	i := 0
	return cursor.FromFunc(func() (any, bool) {
		for i < len(ids) {
			p, ok := s.Person(ids[i])
			i++
			if ok {
				return PersonTuple(p), true
			}
		}
		return nil, false
	})
}

// AuctionsCursor iterates the auction table in insertion order as tuples.
func (s *Store) AuctionsCursor() cursor.Cursor {
	s.mu.RLock()
	ids := append([]int{}, s.aOrder...)
	s.mu.RUnlock()
	i := 0
	return cursor.FromFunc(func() (any, bool) {
		for i < len(ids) {
			a, ok := s.Auction(ids[i])
			i++
			if ok {
				return AuctionTuple(a), true
			}
		}
		return nil, false
	})
}

// The demonstration queries over the stream registered as "bids" (and the
// relation "persons"), timestamps in milliseconds.
const (
	// QueryHighestBid: "Return every 10 minutes the highest bid in the
	// recent 10 minutes" — the paper's example query, a time-based fixed
	// (tumbling) window group-by.
	QueryHighestBid = `SELECT MAX(price) AS highest FROM bids [RANGE 600000 SLIDE 600000]`

	// QueryCurrencyConversion: NEXMark query 1 — convert bid prices.
	QueryCurrencyConversion = `SELECT auction, bidder, price * 0.908 AS eur FROM bids [NOW]`

	// QueryBidCounts: bids per auction over the last minute.
	QueryBidCounts = `SELECT auction, COUNT(*) AS n FROM bids [RANGE 60000] GROUP BY auction`

	// QueryBidderJoin: join the bid stream with the person relation.
	QueryBidderJoin = `SELECT bids.price, persons.name FROM bids [RANGE 60000], persons [UNBOUNDED]
		WHERE bids.bidder = persons.id`

	// QueryLastBid: the current (most recent) bid per auction — a
	// partitioned count window.
	QueryLastBid = `SELECT auction, price FROM bids [PARTITION BY auction ROWS 1]`

	// QueryHotAuctions: auctions drawing more than three bids within the
	// last minute (HAVING over a windowed group-by).
	QueryHotAuctions = `SELECT auction, COUNT(*) AS n FROM bids [RANGE 60000]
		GROUP BY auction HAVING COUNT(*) > 3`
)
