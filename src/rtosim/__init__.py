"""rtosim: a deterministic testbed for retransmission-timeout algorithms.

A timeout algorithm is assembled from five independently chosen layers:

  1. estimate update        how a delay sample changes the smoothed estimate
  2. sample measurement     which copy of a retransmitted packet anchors the
                            sample, if any
  3. first timeout          timer interval for a fresh transmission
  4. back-off               how the interval grows across retries
  5. disconnection          when repeated failure means the peer is gone

The package provides the layer policies, a tick-resolution event simulator
with window transport and lossy or store-and-forward paths, traces and
summaries (`metrics.summarize` judges each run Bounded, Diverged or
FalseConverged), canned scenarios and the experiments over them, and a CLI
(`rtosim run|sweep|list-policies`).  Import them from their submodules:
`estimators` and `timeout` (the policies), `sim`, `transport`, `metrics`,
`scenarios`, `config`, `experiments`, `cli`.
"""

__version__ = "0.1.0"
