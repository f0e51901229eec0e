// Package vap is the public API of the VAP reproduction: a visual-analysis
// library for discovering spatio-temporal patterns in smart-meter energy
// consumption data (Liu et al., "VAP: A Visual Analysis Tool for Energy
// Consumption Spatio-temporal Pattern Discovery", EDBT 2020).
//
// The library is organized like the paper's three-layer architecture:
//
//   - the data layer is an embedded spatio-temporal store (compressed
//     time series per meter, a spatial R-tree over locations bulk-loaded
//     with the catalog's published view, optional WAL and snapshot
//     durability) — Open/OpenInMemory;
//   - the logic layer is the Analyzer with the two pattern-recognition
//     models: TypicalPatterns (t-SNE/MDS dimension reduction with Pearson
//     correlation distance, brushed-group profiling) and ShiftPatternsCtx
//     (Gaussian-KDE density maps, Eq. 4 demand-shift flow extraction);
//   - the presentation layer is server-side SVG rendering plus a JSON
//     REST/SSE web application — NewHTTPServer.
//
// A synthetic smart-meter generator (GenerateDataset) plants the paper's
// five typical patterns, the "early birds" cohort, and a commercial to
// residential evening demand shift, so every demo scenario is runnable
// out of the box.
//
// Quickstart:
//
//	st, _ := vap.OpenInMemory()
//	ds := vap.GenerateDataset(vap.DatasetConfig{Seed: 1, Days: 120})
//	_ = ds.LoadInto(st)
//	an := vap.NewAnalyzer(st)
//	view, _ := an.TypicalPatterns(ctx, vap.TypicalConfig{})
//	ids, rows, _ := view.SelectBrush(vap.Brush{MinX: 0.6, MinY: 0.6, MaxX: 1, MaxY: 1})
//	profile, _ := view.Profile(rows)
//	fmt.Println(profile.Label, len(ids))
package vap

import (
	"net/http"

	"vap/internal/api"
	"vap/internal/core"
	"vap/internal/exec"
	"vap/internal/frontend"
	"vap/internal/gen"
	"vap/internal/geo"
	"vap/internal/govern"
	"vap/internal/query"
	"vap/internal/reduce"
	"vap/internal/store"
	"vap/internal/stream"
	"vap/internal/wire"
)

// --- Data layer -------------------------------------------------------------

// Store is the embedded spatio-temporal database.
type Store = store.Store

// StoreOptions configures durability: Dir selects the data directory and
// RollupRes the rollup tiers, which every open derives from the raw
// samples (snapshots hold nothing else). Appends are committed in the
// background, at most DefaultCommitInterval behind, to WAL segments of
// DefaultSegmentBytes; a nil Store.Sync means every append made before it
// is fsynced. SegmentBytes and CommitInterval are for tests.
type StoreOptions = store.Options

// Durability defaults (used when the corresponding StoreOptions field is
// zero).
const (
	// DefaultSegmentBytes is the WAL segment rotation threshold (64 MiB).
	DefaultSegmentBytes = store.DefaultSegmentBytes
	// DefaultCommitInterval is the background group-commit flush cadence.
	DefaultCommitInterval = store.DefaultCommitInterval
)

// WALCorruptError reports interior WAL corruption found during recovery: a
// malformed record with valid records after it, which is reported loudly
// (with segment path and byte offset) rather than silently dropping the
// acknowledged records that follow. A torn tail — a crash mid-write with
// nothing valid after it — is repaired automatically instead.
type WALCorruptError = store.CorruptError

// Meter is customer metadata (location, zone).
type Meter = store.Meter

// Sample is one meter reading.
type Sample = store.Sample

// ZoneType classifies land use at a meter location.
type ZoneType = store.ZoneType

// Zone constants.
const (
	ZoneResidential = store.ZoneResidential
	ZoneCommercial  = store.ZoneCommercial
	ZoneIndustrial  = store.ZoneIndustrial
	ZoneMixed       = store.ZoneMixed
)

// Point is a geographic location.
type Point = geo.Point

// BBox is a geographic bounding box.
type BBox = geo.BBox

// Open opens a store with the given options (set Dir for durability).
func Open(opts StoreOptions) (*Store, error) { return store.Open(opts) }

// OpenInMemory opens a volatile store (no WAL, no snapshots).
func OpenInMemory() (*Store, error) { return store.Open(store.Options{}) }

// --- Synthetic data -----------------------------------------------------------

// DatasetConfig controls the synthetic smart-meter population.
type DatasetConfig = gen.Config

// Dataset is a generated population with ground-truth pattern labels.
type Dataset = gen.Dataset

// Pattern is a planted ground-truth consumption pattern.
type Pattern = gen.Pattern

// Planted pattern identities.
const (
	PatternBimodal      = gen.PatternBimodal
	PatternEnergySaving = gen.PatternEnergySaving
	PatternIdle         = gen.PatternIdle
	PatternConstantHigh = gen.PatternConstantHigh
	PatternSuspicious   = gen.PatternSuspicious
	PatternEarlyBird    = gen.PatternEarlyBird
)

// GenerateDataset builds a deterministic synthetic data set with the
// paper's planted structure.
func GenerateDataset(cfg DatasetConfig) *Dataset { return gen.Generate(cfg) }

// --- Logic layer ----------------------------------------------------------------

// Analyzer is the pattern-discovery façade (the paper's models layer).
// Its expensive kernels run on a parallel execution engine whose results
// are memoized against the store's data version: repeated identical
// TypicalPatterns/ShiftPatternsCtx calls on an unchanged store return cached
// views, and any Append invalidates them precisely.
type Analyzer = core.Analyzer

// ExecOptions tunes the analyzer's execution engine: Workers is the
// parallel fan-out width (default runtime.GOMAXPROCS(0)), and Gov the
// admission controller; the result cache holds 64 entries.
type ExecOptions = core.Options

// ExecStats reports the execution engine's cache and deduplication
// counters (see Analyzer.ExecStats).
type ExecStats = exec.Stats

// NewAnalyzer wraps a store with default ExecOptions.
func NewAnalyzer(st *Store) *Analyzer { return core.NewAnalyzer(st) }

// NewAnalyzerWithOptions wraps a store with explicit execution-engine
// knobs.
func NewAnalyzerWithOptions(st *Store, opts ExecOptions) *Analyzer {
	return core.NewAnalyzerOpts(st, opts)
}

// GovernConfig tunes the admission controller embedded analyzers run
// under (ExecOptions.Gov): the in-flight memory budget and per-tenant
// quotas. The zero value selects production-safe defaults sized to the
// host; its other fields are for tests that need a full house by hand.
type GovernConfig = govern.Config

// GovernQuota bounds one tenant (see GovernConfig.Tenants).
type GovernQuota = govern.Quota

// Governor is the admission controller; build one with NewGovernor and
// pass it via ExecOptions.Gov to share budgets across analyzers.
type Governor = govern.Controller

// NewGovernor returns an admission controller for cfg (zero value =
// defaults).
func NewGovernor(cfg GovernConfig) *Governor { return govern.New(cfg) }

// CostError is the typed up-front rejection for a query whose planner
// estimate exceeds its tenant's cost ceiling or memory budget; retrying
// without narrowing the query cannot succeed.
type CostError = govern.CostError

// ShedError is the typed overload rejection: the request was shed under
// load and carries a Retry-After hint.
type ShedError = govern.ShedError

// TypicalConfig parameterizes typical-pattern discovery.
type TypicalConfig = core.TypicalConfig

// TypicalView is the 2-D pattern navigator (view C).
type TypicalView = core.TypicalView

// Brush is a rectangular selection in the navigator.
type Brush = core.Brush

// GroupProfile is a brushed group's aggregated pattern (view B).
type GroupProfile = core.GroupProfile

// PatternLabel names a profile after the paper's canonical patterns.
type PatternLabel = core.PatternLabel

// Canonical labels.
const (
	LabelBimodal      = core.LabelBimodal
	LabelEnergySaving = core.LabelEnergySaving
	LabelIdle         = core.LabelIdle
	LabelConstantHigh = core.LabelConstantHigh
	LabelSuspicious   = core.LabelSuspicious
	LabelEarlyBird    = core.LabelEarlyBird
	LabelUnknown      = core.LabelUnknown
)

// ShiftConfig parameterizes shift-pattern discovery.
type ShiftConfig = core.ShiftConfig

// ShiftResult is a computed flow map (view A).
type ShiftResult = core.ShiftResult

// VQLOutput is one executed VQL statement: rows, plan explain, and the
// version metadata of the data the result was computed from. Execute
// statements with Analyzer.VQL:
//
//	out, err := an.VQL(ctx, "SELECT zone, sum(value) FROM meters GROUP BY zone")
type VQLOutput = core.VQLOutput

// Selection filters meters and time.
type Selection = query.Selection

// Granularity is a temporal bucketing unit.
type Granularity = query.Granularity

// The paper's seven granularities.
const (
	GranHourly    = query.GranHourly
	Gran4Hourly   = query.Gran4Hourly
	GranDaily     = query.GranDaily
	GranWeekly    = query.GranWeekly
	GranMonthly   = query.GranMonthly
	GranQuarterly = query.GranQuarterly
	GranYearly    = query.GranYearly
)

// ReductionMethod selects the dimension-reduction algorithm.
type ReductionMethod = reduce.Method

// Reduction methods (S1 compares t-SNE and MDS; SMACOF and PCA are the
// extended comparison set).
const (
	MethodTSNE   = reduce.MethodTSNE
	MethodMDS    = reduce.MethodMDS
	MethodSMACOF = reduce.MethodSMACOF
	MethodPCA    = reduce.MethodPCA
)

// Metric selects the series dissimilarity.
type Metric = reduce.Metric

// Metrics (the paper uses Pearson correlation distance).
const (
	MetricPearson   = reduce.MetricPearson
	MetricEuclidean = reduce.MetricEuclidean
)

// --- Presentation layer -----------------------------------------------------------

// StreamHub broadcasts live density updates to SSE subscribers.
type StreamHub = stream.Hub

// NewStreamHub returns an empty hub.
func NewStreamHub() *StreamHub { return stream.NewHub() }

// NewHTTPServer returns the VAP web application handler: JSON REST under
// /api/, SVG views under /view/, and the HTML shell at /. hub may be nil
// to disable the SSE endpoint.
func NewHTTPServer(an *Analyzer, hub *StreamHub) http.Handler {
	return api.NewServer(an, hub).Routes()
}

// --- Protocol-agnostic frontend core ---------------------------------------

// Session is one client conversation with the query core — tenant
// identity, the per-session statement deadline, statement counter —
// independent of the transport carrying it.
type Session = frontend.Session

// NewFrontendSession returns a session for a tenant (empty = default).
func NewFrontendSession(tenant string) *Session { return frontend.NewSession(tenant) }

// QueryCore owns the transport-neutral statement lifecycle: parse →
// plan → governance admission → execute → typed result → typed error
// taxonomy. The HTTP codec and the MySQL wire server are thin encoders
// over the same core.
type QueryCore = frontend.Core

// NewQueryCore returns a query core over an analyzer.
func NewQueryCore(an *Analyzer) *QueryCore { return frontend.NewCore(an) }

// StatementError classifies one statement failure identically for every
// transport (HTTP status, MySQL errno/SQLSTATE, retry hints).
type StatementError = frontend.Info

// MapStatementError classifies any statement error into the shared
// taxonomy — the single error→status table both transports render from.
func MapStatementError(err error) StatementError { return frontend.MapError(err) }

// --- MySQL wire-protocol server ---------------------------------------------

// WireConfig configures the MySQL wire-protocol server (listen address,
// user→tenant auth table, shared query core, timeouts).
type WireConfig = wire.Config

// WireServer serves the MySQL client/server protocol over a QueryCore:
// handshake v10, mysql_native_password auth, COM_QUERY text result sets.
type WireServer = wire.Server

// WireUsers maps wire usernames to credentials and governance tenants.
type WireUsers = wire.Users

// NewWireServer returns a wire server for cfg (cfg.Core is required).
func NewWireServer(cfg WireConfig) (*WireServer, error) { return wire.NewServer(cfg) }

// LoadWireUsers reads a username:password:tenant user file (empty path =
// a single password-less "vap" user on the default tenant).
func LoadWireUsers(path string) (WireUsers, error) { return wire.LoadUsers(path) }
