package route

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"

	"repro/internal/rpc"
)

// ServeRPC implements rpc.Handler, putting a binary front on the whole
// fleet: a caller speaking VS3R to the router gets the same key-affine
// routing, failover, and hedging as an HTTP caller.
func (r *Router) ServeRPC(ctx context.Context, req rpc.Request) rpc.Response {
	if req.Spec == "" {
		return rpcErrorResponse(http.StatusBadRequest, errors.New("missing \"spec\""))
	}
	client := req.Client
	if client == "" {
		client = "rpc"
	}
	res := r.serveOne(ctx, client, req)
	if res.err != nil {
		return rpcErrorResponse(res.status, res.err)
	}
	return rpc.Response{Status: res.status, ProblemKey: res.problemKey, Backend: res.backendID, Body: res.body}
}

func rpcErrorResponse(status int, err error) rpc.Response {
	body, _ := json.MarshalIndent(errorResponse{Error: err.Error()}, "", "  ")
	return rpc.Response{Status: status, Body: append(body, '\n')}
}

// Owner returns the URL of the backend that owns key on the ring (ignoring
// health), or "" with no backends. Exported for tests and operational
// tooling that needs to predict placement.
func (r *Router) Owner(key string) string {
	idx := r.ring.owner(key)
	if idx < 0 {
		return ""
	}
	return r.backends[idx].url
}
