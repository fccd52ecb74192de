"""
Federation over real sockets
============================

Same simulation as the in-process runs, but every message — model
broadcasts, local updates, evaluation results — travels through the
length-prefixed binary protocol over TCP loopback.  The script runs the
server and both hospital workers as threads in one process, then checks
the result is bit-identical to the in-process transport and reports how
many bytes crossed the wire.

Run:  python3 demos/tcp_federation.py
"""

import numpy as np

from fedhosp.experiment import ExperimentConfig, prepare
from fedhosp.federation import run_federation
from fedhosp.transport import InProcessTransport, TcpTransport

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
state_tcp, evals_tcp = run_federation(hospitals, arch, fed, train_cfg, tcp)
print(f"TCP run finished: best accuracy {state_tcp.best_accuracy:.4f} "
      f"after {len(state_tcp.history)} rounds")
print(f"bytes on the wire: {tcp.total_wire_bytes:,} "
      f"({tcp.total_wire_bytes / len(state_tcp.history):,.0f} per round)")

inproc = InProcessTransport()
state_ip, evals_ip = run_federation(hospitals, arch, fed, train_cfg, inproc)

# identical seeds + identical message ordering -> identical models, exactly
assert np.array_equal(state_tcp.global_params, state_ip.global_params)
assert evals_tcp == evals_ip
print("in-process replay matches the TCP run bit for bit")

# the traffic scales with the parameter vector (d+1 doubles per update),
# never with how many patient rows a hospital holds
print(f"model has {arch.n_params} parameters "
      f"-> each update frame is {4 + 1 + 4 + 4 + 8 + 4 + 8 * arch.n_params} bytes")
