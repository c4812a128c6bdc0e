package pipes

import (
	"net/http"

	"pipes/internal/optimizer"
	"pipes/internal/pubsub"
	"pipes/internal/service"
	"pipes/internal/telemetry"
)

// This file wires the multi-tenant continuous-query service
// (internal/service, SERVICE.md) into the DSMS facade: the Engine
// adapter over dynamic query integration and the pipes_tenant_* scrape
// families. The /v1/ mount on the telemetry endpoint and the dedicated
// Config.ServiceAddr listener are in telemetry.go.

// Service re-exports for engine embedders.
type (
	// TenantConfig declares one tenant of the continuous-query service.
	TenantConfig = service.TenantConfig
	// TenantQuota bounds one tenant's footprint on the shared engine.
	TenantQuota = service.Quota
	// ServiceError is the structured error document of the service API.
	ServiceError = service.Error
)

// engineQuery adapts one registered query to the service's handle.
type engineQuery struct {
	d *DSMS
	q *Query
}

func (eq *engineQuery) Attach(sink pubsub.Sink) error { return eq.q.Subscribe(sink) }
func (eq *engineQuery) Detach(sink pubsub.Sink) error { return eq.q.Unsubscribe(sink) }
func (eq *engineQuery) PlanText() string              { return optimizer.Explain(eq.q.Instance.Plan) }
func (eq *engineQuery) NewNodes() int                 { return eq.q.Instance.NewNodes }
func (eq *engineQuery) SharedNodes() int              { return eq.q.Instance.SharedNodes }

// engineAdapter implements service.Engine over the DSMS: submissions go
// through the optimizer's admission-gated dynamic query integration,
// kills through full deregistration (memory-manager release + shared
// subplan refcount drop + dead-node splice-out).
type engineAdapter struct{ d *DSMS }

func (a engineAdapter) SubmitQuery(text string, admit func(newNodes, sharedNodes int) error) (service.EngineQuery, error) {
	q, err := a.d.RegisterQueryAdmitted(text, optimizer.Admission(admit))
	if err != nil {
		return nil, err
	}
	return &engineQuery{d: a.d, q: q}, nil
}

func (a engineAdapter) KillQuery(eq service.EngineQuery) error {
	return a.d.DeregisterQuery(eq.(*engineQuery).q)
}

// initService assembles the control plane when Config enables it and
// registers the per-tenant scrape families.
func (d *DSMS) initService() {
	if len(d.cfg.ServiceTenants) == 0 && d.cfg.ServiceAddr == "" {
		return
	}
	d.service = service.New(engineAdapter{d: d}, d.cfg.ServiceTenants)
	d.Registry.RegisterCollector(func(c *telemetry.Collect) {
		for _, st := range d.service.TenantStats() {
			lb := telemetry.Labels{"tenant": st.Name}
			c.Gauge("pipes_tenant_queries", lb, float64(st.ActiveQueries))
			c.Gauge("pipes_tenant_operators", lb, float64(st.PrivateOperators))
			c.Gauge("pipes_tenant_buffer_bytes", lb, float64(st.BufferBytesReserved))
			c.Counter("pipes_tenant_admission_rejects", lb, st.AdmissionRejects)
			c.Counter("pipes_tenant_results", lb, st.Results)
			c.Counter("pipes_tenant_result_shed", lb, st.ResultShed)
		}
	})
}

// Service returns the control plane (nil unless Config enables it).
func (d *DSMS) Service() *service.Service { return d.service }

// ServiceAddr returns the bound address of the dedicated control-plane
// listener ("" when disabled or before Start).
func (d *DSMS) ServiceAddr() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.sserver.addr()
}

// ServiceHandler returns the control plane's HTTP handler without
// binding a socket (nil unless the service is enabled) — the hook for
// embedding the API into an existing server or an httptest harness.
func (d *DSMS) ServiceHandler() http.Handler {
	if d.service == nil {
		return nil
	}
	return d.service.Handler()
}
