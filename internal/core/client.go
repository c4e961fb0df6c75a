package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"strconv"
	"time"

	"couchgo/internal/cache"
	"couchgo/internal/memcproto"
	"couchgo/internal/trace"
	"couchgo/internal/vbucket"
)

// Client is the smart client of §4.1/Figure 5: it caches the cluster
// map, hashes each document ID with CRC32 to its vBucket, and talks
// directly to the node owning that partition. On a stale map
// (not-my-vbucket) it refreshes and retries.
//
// The client is transport-agnostic: route resolves a key to a Hop
// through the Router seam, so the same code drives the in-process
// loopback path and real TCP connections to a multi-process cluster.
//
// Client methods are the KV tracing roots: each op makes the sampling
// decision (or joins the caller's span) in do, and every routing
// attempt gets its own child span with node/vBucket/backoff
// annotations.
type Client struct {
	router Router
	bucket string
}

// Bucket names the bucket the client serves.
func (cl *Client) Bucket() string { return cl.bucket }

// OpenBucket returns a smart client for one bucket that routes by the
// bucket's route table, to a copy in this process or to another's conn.
func (c *Cluster) OpenBucket(name string) (*Client, error) {
	if _, err := c.bucket(name); err != nil {
		return nil, err
	}
	t, ok := c.topo.buckets.get(name)
	if !ok {
		return nil, ErrNoSuchBucket
	}
	return &Client{router: t, bucket: name}, nil
}

const (
	maxRouteRetries  = 20
	routeBackoffBase = time.Millisecond
	routeBackoffCap  = 50 * time.Millisecond
)

// routeBackoff returns the sleep before retry attempt+1: exponential
// from 1ms, capped at 50ms, with ±50% jitter so clients retrying
// through the same failover don't stampede the new active in lockstep.
func routeBackoff(attempt int) time.Duration {
	d := routeBackoffBase << min(attempt, 10)
	if d > routeBackoffCap {
		d = routeBackoffCap
	}
	return d/2 + rand.N(d/2+1)
}

// sleepCtx waits d or until ctx is cancelled, whichever comes first —
// a retry backoff must never outlive the request it is retrying for.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// retryableRouteErr reports whether an op failure means "the topology
// moved under us, re-read the map and try again": a stale map
// (not-my-vbucket), a node that stopped serving, a node missing the
// bucket mid-provisioning, or a transport-level connection failure.
func retryableRouteErr(err error) bool {
	return errors.Is(err, vbucket.ErrNotMyVBucket) ||
		errors.Is(err, ErrNodeDown) ||
		errors.Is(err, ErrNoSuchBucket) ||
		errors.Is(err, ErrNodeUnreachable)
}

// do runs one KV op end to end: it opens the op's root (or child) span
// named by its table row, routes, and closes the span with the
// outcome. Every exported op below is a thin wrapper over it.
func (cl *Client) do(ctx context.Context, op Op) (res Result, err error) {
	ctx, sp := trace.Default.Start(ctx, memcproto.SpecOf(op.Code).KVSpan)
	if sp != nil {
		sp.Annotate("bucket", cl.bucket)
		sp.Annotate("key", op.Key)
	}
	err = cl.route(ctx, &op, &res)
	sp.Error(err)
	sp.End()
	return res, err
}

// route resolves op.Key to its hop and runs op there, retrying through
// the router while rebalance or failover move the partition. Each
// attempt is its own span so a trace shows exactly which hops a request
// took and how long it backed off between them; a ctx that ends in a
// backoff fails the op with its error and the last route error. op and
// res are do's own, passed by pointer because each extra by-value hop
// of these ~140-byte structs cost ~10 ns on a sub-µs Get.
func (cl *Client) route(ctx context.Context, op *Op, res *Result) (err error) {
	parent := trace.FromContext(ctx)
	for attempt := 0; attempt < maxRouteRetries; attempt++ {
		asp := parent.Child("route")
		if asp != nil {
			asp.Annotate("attempt", strconv.Itoa(attempt))
		}
		var hop Hop
		hop, err = cl.router.Route(op.Key)
		if asp != nil && hop.Node != "" {
			asp.Annotate("node", string(hop.Node))
			asp.Annotate("vb", strconv.Itoa(hop.VB))
		}
		switch {
		case err != nil:
		case hop.Node == "":
			err = errors.New("core: no active node for key (partition lost)")
		case hop.Copy != nil:
			*res, err = hop.Copy.Do(trace.ContextWith(ctx, asp), op)
		default:
			*res, err = hop.Conn.Do(trace.ContextWith(ctx, asp), hop.VB, *op)
		}
		if err == nil || hop.Node == "" || !retryableRouteErr(err) {
			asp.Error(err)
			asp.End()
			return err
		}
		// Stale map: "the cluster updates each connected client library
		// with the new cluster map" — here the client routes again by
		// the router's current one. (Over TCP the refreshed map rode the
		// not-my-vbucket response itself.)
		d := routeBackoff(attempt)
		if asp != nil {
			asp.Error(err)
			asp.Annotate("backoff", d.String())
			asp.End()
		}
		if cerr := sleepCtx(ctx, d); cerr != nil {
			return fmt.Errorf("%w (last route error: %w)", cerr, err)
		}
	}
	return err
}

// Get retrieves a document.
func (cl *Client) Get(ctx context.Context, key string) (cache.Item, error) {
	res, err := cl.do(ctx, Op{Code: memcproto.OpGet, Key: key})
	return res.Item, err
}

// Set writes a document. casCheck=0 skips optimistic locking.
func (cl *Client) Set(ctx context.Context, key string, value []byte, casCheck uint64) (cache.Item, error) {
	return cl.SetWithOptions(ctx, key, value, 0, 0, casCheck, DurabilityOptions{})
}

// SetWithOptions writes with flags, expiry, CAS, and durability.
func (cl *Client) SetWithOptions(ctx context.Context, key string, value []byte, flags uint32, expiry int64, casCheck uint64, dur DurabilityOptions) (cache.Item, error) {
	res, err := cl.do(ctx, Op{Code: memcproto.OpSet, Key: key, Value: value, Flags: flags, Expiry: expiry, CAS: casCheck, Dur: dur})
	return res.Item, err
}

// Add inserts a document that must not exist.
func (cl *Client) Add(ctx context.Context, key string, value []byte) (cache.Item, error) {
	res, err := cl.do(ctx, Op{Code: memcproto.OpAdd, Key: key, Value: value})
	return res.Item, err
}

// Replace updates a document that must exist.
func (cl *Client) Replace(ctx context.Context, key string, value []byte, casCheck uint64) (cache.Item, error) {
	res, err := cl.do(ctx, Op{Code: memcproto.OpReplace, Key: key, Value: value, CAS: casCheck})
	return res.Item, err
}

// Delete removes a document.
func (cl *Client) Delete(ctx context.Context, key string, casCheck uint64) error {
	return cl.DeleteWithDurability(ctx, key, casCheck, DurabilityOptions{})
}

// DeleteWithDurability removes a document and applies durability.
func (cl *Client) DeleteWithDurability(ctx context.Context, key string, casCheck uint64, dur DurabilityOptions) error {
	_, err := cl.do(ctx, Op{Code: memcproto.OpDelete, Key: key, CAS: casCheck, Dur: dur})
	return err
}

// Touch updates a document's TTL.
func (cl *Client) Touch(ctx context.Context, key string, expiry int64) error {
	_, err := cl.do(ctx, Op{Code: memcproto.OpTouch, Key: key, Expiry: expiry})
	return err
}

// GetAndLock takes the document hard lock (§3.1.1).
func (cl *Client) GetAndLock(ctx context.Context, key string, lockSeconds int64) (cache.Item, error) {
	res, err := cl.do(ctx, Op{Code: memcproto.OpGetAndLock, Key: key, Expiry: lockSeconds})
	return res.Item, err
}

// Unlock releases the hard lock.
func (cl *Client) Unlock(ctx context.Context, key string, casToken uint64) error {
	_, err := cl.do(ctx, Op{Code: memcproto.OpUnlock, Key: key, CAS: casToken})
	return err
}

// SubdocGet reads one path inside a document without fetching it all.
func (cl *Client) SubdocGet(ctx context.Context, key, path string) (any, error) {
	res, err := cl.do(ctx, Op{Code: memcproto.OpSubdocGet, Key: key, Path: path})
	return res.Doc, err
}

// SubdocSet writes one path inside a document atomically.
func (cl *Client) SubdocSet(ctx context.Context, key, path string, v any, casCheck uint64) (cache.Item, error) {
	res, err := cl.do(ctx, Op{Code: memcproto.OpSubdocSet, Key: key, Path: path, Doc: v, CAS: casCheck})
	return res.Item, err
}

// SubdocRemove deletes one path inside a document atomically.
func (cl *Client) SubdocRemove(ctx context.Context, key, path string, casCheck uint64) (cache.Item, error) {
	res, err := cl.do(ctx, Op{Code: memcproto.OpSubdocRemove, Key: key, Path: path, CAS: casCheck})
	return res.Item, err
}

// SubdocArrayAppend appends to an array field atomically.
func (cl *Client) SubdocArrayAppend(ctx context.Context, key, path string, v any, casCheck uint64) (cache.Item, error) {
	res, err := cl.do(ctx, Op{Code: memcproto.OpSubdocArrAdd, Key: key, Path: path, Doc: v, CAS: casCheck})
	return res.Item, err
}

// SubdocCounter adds delta to a numeric field atomically, returning
// the new value.
func (cl *Client) SubdocCounter(ctx context.Context, key, path string, delta float64, casCheck uint64) (float64, error) {
	res, err := cl.do(ctx, Op{Code: memcproto.OpSubdocCounter, Key: key, Path: path, Delta: delta, CAS: casCheck})
	n, _ := res.Doc.(float64)
	return n, err
}

// XDCRApply installs a mutation replicated from another cluster,
// applying the §4.6.1 conflict-resolution rule on this side. It
// reports whether the incoming revision won.
func (cl *Client) XDCRApply(ctx context.Context, key string, value []byte, deleted bool, cas, revSeqno uint64, flags uint32, expiry int64) (bool, error) {
	res, err := cl.do(ctx, Op{Code: memcproto.OpXDCRSet, Key: key, Value: value, Deleted: deleted, CAS: cas, RevSeqno: revSeqno, Flags: flags, Expiry: expiry})
	return res.Applied, err
}
