package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"

	"looppart"
	"looppart/internal/telemetry"
	"looppart/internal/verify"
)

// ?verify=1 must return the plan bytes unchanged — byte-identical to what
// the plain endpoint serves — wrapped with a populated verification block.
func TestPlanVerifyParam(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := planBody("rect", 4)

	plain, plainRaw := postPlan(t, ts.URL, body)
	if plain.StatusCode != http.StatusOK {
		t.Fatalf("plain plan: status %d: %s", plain.StatusCode, plainRaw)
	}

	resp, err := http.Post(ts.URL+"/v1/plan?verify=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("verified plan: status %d", resp.StatusCode)
	}
	var vr struct {
		Result json.RawMessage `json:"result"`
		Verify *verify.Report  `json:"verify"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&vr); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(vr.Result, plainRaw) {
		t.Errorf("verified plan bytes differ from the plain serving:\n%s\nvs\n%s", vr.Result, plainRaw)
	}
	if vr.Verify == nil || len(vr.Verify.Checks) == 0 {
		t.Fatal("verification block missing or empty")
	}
	if !vr.Verify.OK() {
		t.Errorf("healthy plan failed verification: %+v", vr.Verify)
	}
}

// With Config.SelfCheck every plan response carries the verification
// block, no query parameter needed.
func TestSelfCheckConfig(t *testing.T) {
	reg := telemetry.New()
	_, ts := newTestServer(t, Config{SelfCheck: true, Registry: reg})

	resp, data := postPlan(t, ts.URL, planBody("rect", 4))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var vr struct {
		Result json.RawMessage `json:"result"`
		Verify *verify.Report  `json:"verify"`
	}
	if err := json.Unmarshal(data, &vr); err != nil {
		t.Fatalf("self-check response is not a verify envelope: %v\n%s", err, data)
	}
	if vr.Verify == nil || !vr.Verify.OK() {
		t.Fatalf("self-check block missing or failing: %+v", vr.Verify)
	}
	if reg.Snapshot().Counters["server.verifies"] == 0 {
		t.Error("server.verifies counter not incremented")
	}
}

// A symbolic oblivious plan has no iteration→processor map to check, so
// ?verify=1 must still answer 200 with a passing report rather than a
// verification failure.
func TestPlanVerifySymbolicOblivious(t *testing.T) {
	reg := telemetry.New()
	_, ts := newTestServer(t, Config{Registry: reg})
	body, _ := json.Marshal(looppart.PlanRequest{
		Source:   "doall (i, 0, ?N)\n doall (j, 0, 31)\n  A[i,j] = A[i,j-1]\n enddoall\nenddoall",
		Procs:    4,
		Strategy: "oblivious",
	})
	resp, err := http.Post(ts.URL+"/v1/plan?verify=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var vr struct {
		Result json.RawMessage `json:"result"`
		Verify *verify.Report  `json:"verify"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&vr); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || vr.Verify == nil || !vr.Verify.OK() {
		t.Fatalf("verified symbolic oblivious plan: status %d, report %v", resp.StatusCode, vr.Verify)
	}
	if n := reg.Snapshot().Counters["server.verify_failures"]; n != 0 {
		t.Errorf("server.verify_failures = %d, want 0", n)
	}
}
