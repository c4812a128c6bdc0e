package pipes

import (
	"pipes/internal/adapter"
	"pipes/internal/aggregate"
	"pipes/internal/archive"
	"pipes/internal/cursor"
	"pipes/internal/memory"
	"pipes/internal/metadata"
	"pipes/internal/ops"
	"pipes/internal/remote"
	"pipes/internal/sched"
	"pipes/internal/sweeparea"
	"pipes/internal/wire"
)

// Operator algebra re-exports: every operation of the extended relational
// algebra over time intervals. See internal/ops for semantics.
var (
	NewFilter            = ops.NewFilter
	NewMap               = ops.NewMap
	NewTimeWindow        = ops.NewTimeWindow
	NewTumblingWindow    = ops.NewTumblingWindow
	NewCountWindow       = ops.NewCountWindow
	NewPartitionedWindow = ops.NewPartitionedWindow
	NewNowWindow         = ops.NewNowWindow
	NewUnboundedWindow   = ops.NewUnboundedWindow
	NewUnion             = ops.NewUnion
	NewJoin              = ops.NewJoin
	NewEquiJoin          = ops.NewEquiJoin
	NewThetaJoin         = ops.NewThetaJoin
	NewBandJoin          = ops.NewBandJoin
	NewMJoin             = ops.NewMJoin
	NewGroupBy           = ops.NewGroupBy
	NewAggregate         = ops.NewAggregate
	NewDistinct          = ops.NewDistinct
	NewCoalesce          = ops.NewCoalesce
	NewDifference        = ops.NewDifference
	NewIntersect         = ops.NewIntersect
	NewSplit             = ops.NewSplit
	NewSample            = ops.NewSample
	NewSequencer         = ops.NewSequencer
	NewShedder           = ops.NewShedder
	NewIStream           = ops.NewIStream
	NewDStream           = ops.NewDStream
)

// Pair is the default combined value of a binary join.
type Pair = ops.Pair

// GroupResult is the default output value of a grouped aggregation.
type GroupResult = ops.GroupResult

// Online aggregation functions, shared by data-driven and demand-driven
// processing.
var (
	NewCount      = aggregate.NewCount
	NewSum        = aggregate.NewSum
	NewAvg        = aggregate.NewAvg
	NewMin        = aggregate.NewMin
	NewMax        = aggregate.NewMax
	NewVariance   = aggregate.NewVariance
	NewStdDev     = aggregate.NewStdDev
	NewMedian     = aggregate.NewMedian
	NewP2Quantile = aggregate.NewP2Quantile
	NewReservoir  = aggregate.NewReservoir
	// AggregateByName resolves an SQL aggregate name to its factory.
	AggregateByName = aggregate.ByName
)

// Aggregate is an incremental aggregate function.
type Aggregate = aggregate.Aggregate

// SweepArea is the status structure of the join framework.
type SweepArea = sweeparea.SweepArea

// SweepArea constructors and the ripple join.
var (
	NewListArea   = sweeparea.NewList
	NewHashArea   = sweeparea.NewHash
	NewTreeArea   = sweeparea.NewTree
	NewRippleJoin = sweeparea.NewRippleJoin
)

// Cursor is a demand-driven iterator (XXL-style).
type Cursor = cursor.Cursor

// Cursor algebra and the stream⇄cursor translation operators.
var (
	CursorFromSlice = cursor.FromSlice
	CursorFromFunc  = cursor.FromFunc
	CursorFilter    = cursor.Filter
	CursorMap       = cursor.Map
	CursorCollect   = cursor.Collect
	NewCursorSource = cursor.NewSource
	NewCursorSink   = cursor.NewSink
	RelationStamp   = cursor.RelationStamp
	SequenceStamp   = cursor.SequenceStamp
	CursorHashJoin  = cursor.HashJoin
	CursorMerge     = cursor.Merge
	CursorSkip      = cursor.Skip
	CursorTake      = cursor.Take
	CursorGroupBy   = cursor.GroupBy
	CursorAggregate = cursor.Aggregate
)

// Scheduling strategy factories (layer 2 of the scheduling framework).
var (
	RoundRobin     = sched.RoundRobin
	FIFO           = sched.FIFO
	RandomStrategy = sched.Random
	Chain          = sched.Chain
	RateBased      = sched.RateBased
	HighestBacklog = sched.HighestBacklog
	// Boundary splices a scheduler buffer between two nodes (a
	// virtual-node boundary).
	Boundary = sched.Boundary
	// NewEmitterTask and NewBufferTask wrap nodes as schedulable tasks.
	NewEmitterTask = sched.NewEmitterTask
	NewBufferTask  = sched.NewBufferTask
)

// DropState is the memory manager's load-shedding strategy: an operator
// over its budget drops its soonest-expiring state.
var DropState = memory.DropState

// Stream connectivity: persistence to io.Writer/Reader and TCP transport.
var (
	NewStreamWriter = remote.NewWriter
	NewStreamReader = remote.NewReader
	ServeStream     = remote.Serve
	DialStream      = remote.Dial
	// RegisterWireType registers a concrete value type for transport; it
	// is RegisterCheckpointType, since streams and checkpoints share one
	// value codec.
	RegisterWireType = wire.RegisterType
)

// CSV adapters: typed CSV rows ⇄ tuple streams.
type (
	// CSVColumn describes one CSV column (name + kind).
	CSVColumn = adapter.Column
	// CSVSourceConfig parameterises a CSV source.
	CSVSourceConfig = adapter.CSVSourceConfig
)

// CSV column kinds.
const (
	CSVString = adapter.String
	CSVInt    = adapter.Int
	CSVFloat  = adapter.Float
)

// CSV adapter constructors.
var (
	NewCSVSource = adapter.NewCSVSource
	NewCSVSink   = adapter.NewCSVSink
)

// Archive is the time-partitioned store for historical queries.
type Archive = archive.Archive

// NewArchive returns an archive with the given bucket granule; subscribe
// it to any source to persist that stream.
var NewArchive = archive.New

// Monitored is the secondary-metadata handle over one monitored pipe.
type Monitored = metadata.Monitored

// Secondary metadata: Monitor turns it on for a pipe, in place, and
// returns the handle.
var (
	Monitor   = metadata.Monitor
	WithKinds = metadata.WithKinds
	AllKinds  = metadata.AllKinds
)

// Kind identifies one secondary-metadata quantity.
type Kind = metadata.Kind
