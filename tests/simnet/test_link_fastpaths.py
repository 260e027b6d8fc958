"""The channel's exact short-cuts change no order, draw or counter.

``Channel`` starts an idle send without queueing it, skips the loss draw
on a lossless channel and runs a zero-delay delivery inline when nothing
else is due at that instant.  Each short-cut must be invisible: the
values pinned here were produced by the queue-everything data path that
posted every delivery as its own event.
"""

from repro.simnet.engine import Simulator
from repro.simnet.link import Channel
from repro.simnet.packet import UDP, Packet


def _udp(seq, payload_len=972):
    return Packet("a", "b", 1, 2, proto=UDP, payload_len=payload_len, seq=seq)


def test_entry_due_at_departure_runs_before_delivery(sim):
    """An entry queued for the departure instant keeps its place."""
    bridge = Channel(sim, "bridge", rate_bps=8e6)
    order = []
    bridge.connect(lambda pkt: order.append(("delivered", sim.now)))
    pkt = _udp(0)
    bridge.send(pkt)
    departure = pkt.size * 8.0 / bridge.rate_bps
    # Queued after the departure event, so it runs after _tx_done but
    # before the delivery that _tx_done would have posted.
    sim.post(departure, lambda: order.append(("queued", sim.now)))
    sim.run()
    assert order == [("queued", departure), ("delivered", departure)]


def test_zero_delay_delivery_takes_no_event(sim):
    bridge = Channel(sim, "bridge", rate_bps=8e6)
    delivered = []
    bridge.connect(lambda pkt: delivered.append((pkt.seq, sim.now)))
    before = sim.events_processed
    for seq in range(3):
        bridge.send(_udp(seq))
    sim.run()
    assert delivered == [(0, 0.001), (1, 0.002), (2, 0.003)]
    # one _tx_done each, no delivery events
    assert sim.events_processed - before == 3


def test_loss_state_resets_while_lossless():
    """A bursty channel toggled p -> 0 -> p keeps its drop sequence.

    The Gilbert-Elliott state is bad when the loss is switched off (the
    drops at 4-7), and a lossless channel must still reset it to good.
    """
    sim = Simulator(seed=6)
    wan = Channel(sim, "wan", rate_bps=1e6, delay=0.001, loss=0.25,
                  loss_burst=4.0)
    got = set()
    wan.connect(lambda pkt: got.add(pkt.seq))
    for seq in range(120):
        if seq == 8:
            assert wan._loss_state_bad
            wan.set_impairments(loss=0.0)
        elif seq == 30:
            wan.set_impairments(loss=0.25)
        wan.send(_udp(seq, payload_len=100))
        sim.run(until=sim.now + 0.01)
    sim.run()
    drops = "".join("." if seq in got else "x" for seq in range(120))
    assert drops == (
        "....xxxx.................................................."
        "........xxxxx............xx.........xxxxx.................."
        "x.."
    )


def test_idle_and_busy_counters_unchanged():
    """Idle starts, queued bursts, tail drops and losses count as before."""
    sim = Simulator(seed=11)
    lan = Channel(sim, "lan", rate_bps=2e6, delay=0.002, loss=0.1,
                  queue_limit_bytes=4000)
    got = []
    lan.connect(lambda pkt: got.append(pkt.seq))
    seq = 0
    for burst, gap in ((8, 0.5), (1, 0.3), (1, 0.004), (12, 0.2), (3, 1.0)):
        for _ in range(burst):
            lan.send(_udp(seq))
            seq += 1
        sim.run(until=sim.now + gap)
    sim.run()
    assert lan.busy_time == 0.060000000000000026
    assert lan.queue_delay_sum == 0.09200000000000005
    assert (lan.pkts_sent, lan.bytes_sent) == (15, 15000)
    assert (lan.pkts_dropped_queue, lan.pkts_dropped_loss) == (10, 2)
    assert got == [0, 1, 2, 3, 4, 8, 9, 10, 11, 12, 14, 23, 24]
