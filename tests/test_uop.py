"""Unit tests for micro-ops and placeholder producers."""

from repro.core.uop import DecodedUop, MicroOp, PlaceholderProducer, UopState
from repro.isa.assembler import assemble


def make_uop(text="add t0, t1, t2", seq=1):
    inst = assemble(text).instructions[0]
    return MicroOp(seq, inst, inst.addr, fragment_seq=0, position=0,
                   decoded=DecodedUop(inst))


class TestMicroOp:
    def test_initial_state(self):
        uop = make_uop()
        assert uop.state is UopState.RENAMED
        assert not uop.on_correct_path
        assert uop.sources == []
        assert uop.redirect_target is None

    def test_sources_ready_no_sources(self):
        assert make_uop().sources_ready()

    def test_sources_ready_tracks_producer_state(self):
        producer = make_uop(seq=1)
        consumer = make_uop("add t3, t0, t0", seq=2)
        consumer.sources.append(producer)
        assert not consumer.sources_ready()
        producer.state = UopState.DONE
        assert consumer.sources_ready()
        producer.state = UopState.COMMITTED
        assert consumer.sources_ready()

    def test_control_classification(self):
        branch = make_uop("x: beq t0, t1, x")
        assert branch.is_control
        assert not make_uop().is_control


class TestPlaceholderProducer:
    def test_unbound_not_done(self):
        placeholder = PlaceholderProducer(8, fragment_seq=0)
        assert not placeholder.done
        assert placeholder.producer is None

    def test_ready_flag(self):
        placeholder = PlaceholderProducer(8, fragment_seq=0)
        placeholder.ready = True
        assert placeholder.done

    def test_bind_transfers_consumers(self):
        placeholder = PlaceholderProducer(8, fragment_seq=0)
        waiter = make_uop(seq=5)
        placeholder.consumers.append(waiter)
        producer = make_uop(seq=2)
        placeholder.bind(producer)
        assert placeholder.consumers == []
        assert waiter in producer.consumers
        assert not placeholder.done
        producer.state = UopState.DONE
        assert placeholder.done

    def test_chained_placeholders(self):
        inner = PlaceholderProducer(8, fragment_seq=0)
        outer = PlaceholderProducer(8, fragment_seq=1)
        outer.producer = inner
        assert not outer.done
        inner.ready = True
        assert outer.done

    def test_consumer_of_chain_via_sources_ready(self):
        inner = PlaceholderProducer(8, fragment_seq=0)
        outer = PlaceholderProducer(8, fragment_seq=1)
        outer.producer = inner
        consumer = make_uop("add t3, t0, t0")
        consumer.sources.append(outer)
        assert not consumer.sources_ready()
        producer = make_uop(seq=1)
        producer.state = UopState.DONE
        inner.producer = producer
        assert consumer.sources_ready()
