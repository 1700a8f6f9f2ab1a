"""Tests for the DES kernel's blocking FIFO store."""

from repro.des import Environment, Store


def test_store_fifo_order():
    env = Environment()
    store = Store(env)
    got = []

    def consumer(env):
        for _ in range(3):
            item = yield store.get()
            got.append(item)

    def producer(env):
        for i in range(3):
            yield env.timeout(1)
            store.put(i)

    env.process(consumer(env))
    env.process(producer(env))
    env.run()
    assert got == [0, 1, 2]


def test_store_get_blocks_until_put():
    env = Environment()
    store = Store(env)
    times = []

    def consumer(env):
        yield store.get()
        times.append(env.now)

    def producer(env):
        yield env.timeout(9)
        store.put("x")

    env.process(consumer(env))
    env.process(producer(env))
    env.run()
    assert times == [9.0]
