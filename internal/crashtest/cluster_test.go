package crashtest

import (
	"strings"
	"testing"
)

// TestRunClusterSmoke: the CI-shaped campaign must fire whole-node kills,
// fail over, and pass all three verification layers at every point.
func TestRunClusterSmoke(t *testing.T) {
	opt := Default(Cluster)
	res, err := Run(opt)
	sum, _ := res.(ClusterSummary)
	if err != nil {
		t.Fatalf("cluster campaign failed: %v\nsummary: %+v", err, sum)
	}
	// Every point but the unarmed baseline either fires or drains.
	if sum.Fired+sum.Completed != opt.Points-1 {
		t.Fatalf("points %d - 1 != fired %d + completed %d", opt.Points, sum.Fired, sum.Completed)
	}
	if sum.Fired < 3 {
		t.Fatalf("only %d armed kill points fired, want >= 3 (span %d): %+v", sum.Fired, sum.Span, sum)
	}
	if sum.AckedOps == 0 {
		t.Fatal("campaign acknowledged no writes")
	}
	if sum.Span == 0 {
		t.Fatal("baseline measured no event span")
	}
}

// TestRunClusterSplitBrainMutationCaught: with the stale-epoch fence
// disabled and two primaries acknowledging writes for one key, the
// verifier must reject the merged history.
func TestRunClusterSplitBrainMutationCaught(t *testing.T) {
	opt := Default(Cluster)
	opt.Mutation = SplitBrain
	_, err := Run(opt)
	if err == nil {
		t.Fatal("split-brain history slipped past the cluster verifier")
	}
	if !strings.Contains(err.Error(), "split brain") {
		t.Fatalf("verifier rejected for the wrong reason: %v", err)
	}
}

// TestRunClusterOptionValidation: the campaign needs a quorum-surviving
// member count.
func TestRunClusterOptionValidation(t *testing.T) {
	opt := Default(Cluster)
	opt.Nodes = 2
	if _, err := Run(opt); err == nil {
		t.Fatal("2-node campaign accepted; quorum cannot survive a death")
	}
}

// TestRunClusterAckBeforeQuorumMutationCaught: with every coordinator
// answering a burst's writes before they are replicated, a kill loses
// acknowledged writes and the verifier must say so.
func TestRunClusterAckBeforeQuorumMutationCaught(t *testing.T) {
	opt := Default(Cluster)
	opt.Mutation = AckBeforeQuorum
	_, err := Run(opt)
	if err == nil {
		t.Fatal("unreplicated acks slipped past the cluster verifier")
	}
	if !strings.Contains(err.Error(), "missing from every surviving log") {
		t.Fatalf("verifier rejected for the wrong reason: %v", err)
	}
}
