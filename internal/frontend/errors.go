package frontend

import (
	"context"
	"errors"
	"net/http"
	"slices"
	"time"

	"vap/internal/core"
	"vap/internal/flow"
	"vap/internal/govern"
	"vap/internal/kde"
	"vap/internal/query"
	"vap/internal/reduce"
	"vap/internal/store"
	"vap/internal/vql"
)

// Kind classifies one statement failure for every transport. The HTTP
// codec and the MySQL wire server both consume the same MapError output,
// so a given error kind can never map to (say) 422 over HTTP but an
// overload errno over the wire.
type Kind string

const (
	// KindParse: the statement is malformed or mistyped; carries a
	// 1-based source position. HTTP 400 / MySQL ER_PARSE_ERROR.
	KindParse Kind = "parse"
	// KindBadRequest: a well-formed request the core refuses (empty
	// statement, bad session variable, and the request-fault sentinels of
	// the query and analysis layers: badRequests). HTTP 400 /
	// ER_EMPTY_QUERY or ER_WRONG_ARGUMENTS.
	KindBadRequest Kind = "bad_request"
	// KindCost: the governance cost ceiling rejected the query up front;
	// retrying unchanged can never succeed. HTTP 422 / ER_SIGNAL_EXCEPTION.
	KindCost Kind = "cost"
	// KindShed: overload shed the request; carries a Retry-After hint.
	// HTTP 429 / ER_OUT_OF_RESOURCES.
	KindShed Kind = "shed"
	// KindTimeout: the statement deadline or the caller's context fired
	// mid-execution. HTTP 504 / ER_QUERY_TIMEOUT.
	KindTimeout Kind = "timeout"
	// KindInternal: everything else (store corruption, executor faults).
	// HTTP 500 / ER_UNKNOWN_ERROR.
	KindInternal Kind = "internal"
)

// MySQL protocol error numbers and SQL states the wire server emits.
// Values are the standard server errnos clients already know how to
// render and retry on.
const (
	MyErrParse      uint16 = 1064 // ER_PARSE_ERROR
	MyErrEmptyQuery uint16 = 1065 // ER_EMPTY_QUERY
	MyErrWrongArgs  uint16 = 1210 // ER_WRONG_ARGUMENTS
	MyErrCost       uint16 = 1644 // ER_SIGNAL_EXCEPTION (user-raised condition)
	MyErrShed       uint16 = 1041 // ER_OUT_OF_RESOURCES
	MyErrTimeout    uint16 = 3024 // ER_QUERY_TIMEOUT
	MyErrInternal   uint16 = 1105 // ER_UNKNOWN_ERROR
	MyErrAccess     uint16 = 1045 // ER_ACCESS_DENIED_ERROR
	MyErrConnCount  uint16 = 1040 // ER_CON_COUNT_ERROR
	MyErrUnknownCom uint16 = 1047 // ER_UNKNOWN_COM_ERROR
	MyErrUnknownDB  uint16 = 1049 // ER_BAD_DB_ERROR
	MyErrShutdown   uint16 = 1053 // ER_SERVER_SHUTDOWN
	MyErrMalformed  uint16 = 1835 // ER_MALFORMED_PACKET
)

// Info is one classified statement error: the shared taxonomy plus the
// transport encodings (HTTP status, MySQL errno + SQLSTATE) and the typed
// details each codec renders (parse position, governance fields,
// Retry-After hint).
type Info struct {
	Kind       Kind
	HTTPStatus int
	MyErrno    uint16
	SQLState   string
	Msg        string

	// Line/Col are the 1-based parse position (0 = not a parse error).
	Line, Col int
	// RetryAfter is the shed hint (0 unless Kind == KindShed).
	RetryAfter time.Duration
	// Cost / Shed retain the typed governance rejection for codecs that
	// render its individual fields (est samples, ceilings, tenant).
	Cost *govern.CostError
	Shed *govern.ShedError
}

// Error is the frontend's own typed statement error for faults that are
// neither parse nor governance errors (empty statement, bad session
// variable). MyErrno 0 selects the kind's default errno.
type Error struct {
	Kind    Kind
	Msg     string
	MyErrno uint16
}

func (e *Error) Error() string { return e.Msg }

// badRequests are the sentinels the layers under both doors wrap around
// what the request itself got wrong: both anchors in one bucket, a
// selection matching no meters, a window of too many buckets, inverted or
// holding no data, a meter nobody registered, an unknown aggregate, method
// or metric, nothing to estimate, too little to reduce.
var badRequests = []error{
	core.ErrSameBucket, query.ErrNoMeters, query.ErrWindowTooWide, query.ErrInput,
	store.ErrUnknownMeter, kde.ErrInput, flow.ErrInput, reduce.ErrInput,
}

// MapError classifies err into the shared error taxonomy. It is the ONE
// place the error→status tables live: the HTTP codec renders
// Info.HTTPStatus and the wire server encodes Info.MyErrno/SQLState, so
// the two transports classify every error kind identically by
// construction.
func MapError(err error) Info {
	var ce *govern.CostError
	var se *govern.ShedError
	var ve *vql.Error
	var fe *Error
	switch {
	case errors.As(err, &ce):
		return Info{
			Kind: KindCost, HTTPStatus: http.StatusUnprocessableEntity,
			MyErrno: MyErrCost, SQLState: "45000",
			Msg: ce.Error(), Cost: ce,
		}
	case errors.As(err, &se):
		ra := se.RetryAfter.Round(time.Second)
		if ra < time.Second {
			ra = time.Second
		}
		return Info{
			Kind: KindShed, HTTPStatus: http.StatusTooManyRequests,
			MyErrno: MyErrShed, SQLState: "HY000",
			Msg: se.Error(), Shed: se, RetryAfter: ra,
		}
	case errors.As(err, &ve):
		return Info{
			Kind: KindParse, HTTPStatus: http.StatusBadRequest,
			MyErrno: MyErrParse, SQLState: "42000",
			Msg: ve.Error(), Line: ve.Pos.Line, Col: ve.Pos.Col,
		}
	case errors.As(err, &fe):
		info := Info{
			Kind: KindBadRequest, HTTPStatus: http.StatusBadRequest,
			MyErrno: fe.MyErrno, SQLState: "42000", Msg: fe.Msg,
		}
		if info.MyErrno == 0 {
			info.MyErrno = MyErrEmptyQuery
		}
		if fe.Kind != "" {
			info.Kind = fe.Kind
		}
		return info
	case slices.ContainsFunc(badRequests, func(bad error) bool { return errors.Is(err, bad) }):
		return Info{
			Kind: KindBadRequest, HTTPStatus: http.StatusBadRequest,
			MyErrno: MyErrWrongArgs, SQLState: "HY000", Msg: err.Error(),
		}
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return Info{
			Kind: KindTimeout, HTTPStatus: http.StatusGatewayTimeout,
			MyErrno: MyErrTimeout, SQLState: "HY000", Msg: err.Error(),
		}
	default:
		return Info{
			Kind: KindInternal, HTTPStatus: http.StatusInternalServerError,
			MyErrno: MyErrInternal, SQLState: "HY000", Msg: err.Error(),
		}
	}
}
