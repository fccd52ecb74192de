"""
Federation over real sockets
============================

Same simulation as the in-process runs, but every message — model
broadcasts, local updates, evaluation results — travels through the
length-prefixed binary protocol over TCP loopback.  The server side runs as
`fedhosp serve` runs it, and each hospital as `fedhosp worker` runs it, here
as threads of one process.  The script then checks the result is
bit-identical to the in-process `run_federation` and reports how many bytes
crossed the wire.

Run:  python3 demos/tcp_federation.py
"""

import threading
from contextlib import closing

import numpy as np

from fedhosp.experiment import ExperimentConfig, prepare
from fedhosp.federation import (
    run_federation,
    run_server_rounds,
    wait_for_registrations,
    worker_loop,
)
from fedhosp.transport import InProcessTransport, LocalUpdate, TcpTransport, encode

SEED = 19

# The master seed fans out to data=SEED, split=SEED+1, partition=SEED+2,
# init=SEED+3 and training=SEED+4.
cfg = ExperimentConfig(n_episodes=300, n_variables=3, n_hospitals=2,
                       rounds=8, local_epochs=1, gate_enabled=True, seed=SEED)
# Each hospital scales its rows with its own training extremes.
hospitals = prepare(cfg).hospitals(cfg.partition_plan())
arch = cfg.arch(cfg.n_variables)
fed = cfg.fed_config()
train_cfg = cfg.train_config(cfg.local_epochs)

tcp = TcpTransport("127.0.0.1", 0)  # port 0: the OS picks a free port
listener = tcp.listen()


def hospital(h):
    # `fedhosp worker`: connect, register, answer every round until Shutdown
    with closing(tcp.connect()) as conn:
        worker_loop(conn, h, arch, train_cfg, fed.gate_metric)


threads = [threading.Thread(target=hospital, args=(h,)) for h in hospitals]
for t in threads:
    t.start()
# `fedhosp serve`: wait until every hospital has registered, then run the rounds
try:
    workers = wait_for_registrations(listener, [h.hospital_id for h in hospitals])
    state_tcp, _ = run_server_rounds(workers, arch, fed)
finally:
    listener.close()
for t in threads:
    t.join()
print(f"TCP run finished: best accuracy {state_tcp.best_accuracy:.4f} "
      f"after {len(state_tcp.history)} rounds")
print(f"bytes on the wire: {tcp.total_wire_bytes:,} "
      f"({tcp.total_wire_bytes / len(state_tcp.history):,.0f} per round)")

inproc = InProcessTransport()
state_ip, _ = run_federation(hospitals, arch, fed, train_cfg, inproc)

# identical seeds + identical message ordering -> identical models, exactly
assert np.array_equal(state_tcp.global_params, state_ip.global_params)
assert state_tcp.history == state_ip.history
print("in-process replay matches the TCP run bit for bit")

# the traffic scales with the parameter vector (d+1 doubles per update),
# never with how many patient rows a hospital holds
update = LocalUpdate(1, 0, hospitals[0].n_train, state_tcp.global_params)
print(f"model has {arch.n_params} parameters "
      f"-> each update frame is {len(encode(update))} bytes")
