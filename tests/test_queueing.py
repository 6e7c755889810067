"""Both link forms against queueing theory.

Host0 sends fixed-size packets to ``server0`` as a Poisson stream.  Its
access uplink serialises a packet in 1 us, so the server's trunk downlink is
the only queue that matters: one server with deterministic service time D
and room for ``queue_capacity`` waiting packets, an M/D/1/K queue with
K = queue_capacity + 1.  Its loss and mean sojourn come from the embedded
Markov chain at departures (Gross & Harris, *Fundamentals of Queueing
Theory*, the M/G/1/K queue).  Without a low band the benign-first form must
behave the same.  With host1 flooding ``server0`` in the low band and an
unbounded trunk, the benign mean wait is Cobham's non-preemptive priority
result W1 = W0 / (1 - rho1), where W0 = lambda D^2 / 2 over both classes
(Cobham 1954, *Operations Research* 2(1)).  With both classes overloading a
bounded trunk, the FIFO form loses benign packets at the M/D/1/K rate of
the whole load, while the benign-first form sheds the low band instead.

A run's KPI windows are its batches: an estimate is the mean of the
per-window values, and it must lie within ``Z`` batch-means standard errors
of theory.
"""

import math
from statistics import fmean, stdev

import pytest

from vnfsdnsim.engine import RngStream, SimEngine
from vnfsdnsim.model import LinkParams, StarSpec, ThreatKind
from vnfsdnsim.runtime import NetworkSim
from vnfsdnsim.sdn import Controller
from vnfsdnsim.traffic import BenignProfile, DdosProfile, SizeDist
from vnfsdnsim.vnf import MitigationProfile, ProfileSettings, VnfChain

# 995 bytes at 80 Mbps take 99.5 us on the wire, served in D = 100 us.
SIZE = 995
TRUNK_BPS = 80_000_000
D_US = 100
# 1 us per packet on the uplinks, whose queues never fill.
ACCESS = LinkParams(latency_us=0, bandwidth_bps=8_000_000_000, queue_capacity=1000)
DURATION_S = 10.0
WINDOW_S = 0.1  # 100 batches of 1000 service times each
Z = 4.0


def md1k(rho: float, k: int) -> tuple[float, float]:
    """Loss probability and mean sojourn, in units of D, of an M/D/1/K queue."""
    # a[n]: probability of n Poisson arrivals during one service
    a = [math.exp(-rho) * rho**n / math.factorial(n) for n in range(k)]
    # pi[j]: relative probability that a departure leaves j packets behind
    pi = [1.0]
    for j in range(k - 1):
        rest = pi[j] - pi[0] * a[j] - sum(pi[i] * a[j - i + 1] for i in range(1, j + 1))
        pi.append(rest / a[0])
    total = sum(pi)
    norm = pi[0] / total + rho
    loss = 1 - 1 / norm  # the time-average share of a full system, by PASTA
    in_system = sum(j * p / total / norm for j, p in enumerate(pi)) + k * loss
    return loss, in_system / (rho * (1 - loss))  # Little's law


def run(rho_benign: float, capacity: int, *, qos: bool = False, rho_threat: float = 0.0):
    """The KPI windows of one run with the trunk loaded to the given rhos."""
    star = StarSpec(hosts=2, access=ACCESS,
                    trunk=LinkParams(latency_us=0, bandwidth_bps=TRUNK_BPS,
                                     queue_capacity=capacity))
    vnfs = []
    if qos:
        settings = ProfileSettings(detection_probability=0.0, prioritize_benign=True)
        vnfs.append(MitigationProfile("benign-first", settings, RngStream(1, "profile")))
    sim = NetworkSim(star, SimEngine(1), Controller(star), VnfChain(vnfs), window_s=WINDOW_S)
    benign = [BenignProfile("b", ("host0",), "server0", rho_benign * 1e6 / D_US,
                            SizeDist(SIZE), "web")]
    ddos = [DdosProfile("x", "server0", ThreatKind.UDP_FLOOD, "x", attackers=("host1",),
                        rate_multiplier=1.0, base_rate_pps=rho_threat * 1e6 / D_US,
                        size=SizeDist(SIZE))]
    return sim.run(DURATION_S, benign=benign, ddos=ddos).report.windows


def check(batches: list[float], expected: float) -> None:
    mean = fmean(batches)
    se = stdev(batches) / math.sqrt(len(batches))
    assert abs(mean - expected) <= Z * se, f"{mean:.6g} against {expected:.6g}, se {se:.3g}"


@pytest.mark.parametrize("qos", [False, True], ids=["fifo", "benign_first"])
@pytest.mark.parametrize("rho, capacity", [(0.9, 5), (1.2, 10)])
def test_link_is_an_md1k_queue(rho, capacity, qos):
    windows = run(rho, capacity, qos=qos)
    loss, sojourn = md1k(rho, capacity + 1)
    check([w.benign_queue_drops / w.sent_benign for w in windows], loss)
    # The uplink adds its 1 us to every packet's latency.
    check([w.mean_latency_ms * 1000 for w in windows], sojourn * D_US + 1)


def test_md1k_solver_matches_closed_forms():
    # K = 1: an arrival is lost exactly when the one place is taken.
    loss, sojourn = md1k(0.5, 1)
    assert loss == pytest.approx(0.5 / 1.5) and sojourn == pytest.approx(1.0)
    # A large K is the M/D/1 queue: sojourn D + rho D / (2 (1 - rho)).
    loss, sojourn = md1k(0.5, 60)
    assert loss < 1e-12 and sojourn == pytest.approx(1.5)


def test_benign_first_link_meets_cobham_priority_wait():
    rho_benign, rho_threat = 0.3, 0.5
    windows = run(rho_benign, 10**6, qos=True, rho_threat=rho_threat)
    w0 = (rho_benign + rho_threat) * D_US / 2  # lambda D^2 / 2
    check([w.mean_latency_ms * 1000 for w in windows], w0 / (1 - rho_benign) + D_US + 1)


def test_benign_first_link_sheds_the_low_band_on_the_same_packets():
    # rho = 1.2, half of it benign, offered alike to both forms
    fifo = run(0.6, 10, rho_threat=0.6)
    first = run(0.6, 10, qos=True, rho_threat=0.6)
    check([w.benign_queue_drops / w.sent_benign for w in fifo], md1k(1.2, 11)[0])

    def loss(windows):
        return sum(w.benign_queue_drops for w in windows) / sum(w.sent_benign for w in windows)

    assert [w.sent_benign for w in first] == [w.sent_benign for w in fifo]
    assert loss(first) < loss(fifo) / 10, (loss(first), loss(fifo))
