package transport

import (
	"context"
	"fmt"

	"couchgo/internal/cmap"
	"couchgo/internal/core"
	"couchgo/internal/memcproto"
)

// mapSink is what a netConn tells about cluster-map intelligence it
// picks up on the wire: the epoch stamped on every response, and the
// fat map riding a not-my-vbucket bounce. The NetRouter implements it;
// a nil sink (bare conn, tests) just drops the signal.
type mapSink interface {
	observeEpoch(epoch int64)
	installMap(m *cmap.Map)
}

// netConn implements core.NodeConn over the node's pooled multiplexed
// conn: Do encodes the op by its table row, exchanges one frame pair,
// and decodes the response by the same row. It is stateless (addr +
// pool + sink), so routers mint them freely.
type netConn struct {
	addr string
	pool *Pool
	sink mapSink
}

var _ core.NodeConn = netConn{}

// NewNodeConn returns a core.NodeConn speaking the wire protocol to
// addr. sink may be nil.
func NewNodeConn(addr string, pool *Pool, sink mapSink) core.NodeConn {
	return netConn{addr: addr, pool: pool, sink: sink}
}

func (nc netConn) Do(ctx context.Context, vbID int, op core.Op) (core.Result, error) {
	spec := memcproto.SpecOf(op.Code)
	if spec == nil {
		return core.Result{}, fmt.Errorf("transport: %s is not a KV opcode", op.Code)
	}
	req, err := encodeRequest(ctx, spec, vbID, op)
	if err != nil {
		return core.Result{}, err
	}
	resp, err := nc.call(ctx, req)
	if err != nil {
		return core.Result{}, err
	}
	return decodeResult(spec.Resp, op.Key, resp)
}

// call performs one request/response exchange, handling the epoch
// stamp and fat not-my-vbucket map on every response.
func (nc netConn) call(ctx context.Context, req *memcproto.Frame) (*memcproto.Frame, error) {
	conn, err := nc.pool.Get(nc.addr)
	if err != nil {
		return nil, err
	}
	resp, err := conn.Roundtrip(ctx, req)
	if err != nil {
		return nil, err
	}
	if nc.sink != nil {
		if epoch, ok := memcproto.Epoch(resp.Extras); ok {
			nc.sink.observeEpoch(epoch)
		}
	}
	if resp.Status == memcproto.StatusOK {
		return resp, nil
	}
	if resp.Status == memcproto.StatusNotMyVBucket {
		mNotMyVB.Inc()
		// Attribute the bounce to the originating op, so per-op retry
		// rates are visible next to that op's latency series.
		nmvbCounter(req.Opcode.String()).Inc()
		// Fat response: the server's current map rides the value, so
		// the router refreshes without a second round trip.
		if nc.sink != nil && len(resp.Value) > 0 {
			if m, err := decodeMap(resp.Value); err == nil {
				nc.sink.installMap(m)
			}
		}
		return nil, errOf(resp.Status, nil)
	}
	return nil, errOf(resp.Status, resp.Value)
}
