"""pufferfish-repro: a reproduction of "Pufferfish Privacy Mechanisms for
Correlated Data" (Song, Wang, Chaudhuri; SIGMOD 2017).

Public API highlights
---------------------
* :class:`~repro.core.wasserstein.WassersteinMechanism` — Algorithm 1, the
  first mechanism for any Pufferfish instantiation.
* :class:`~repro.core.markov_quilt.MarkovQuiltMechanism` — Algorithm 2 for
  Bayesian networks.
* :class:`~repro.core.mqm_chain.MQMExact` / :class:`~repro.core.mqm_chain.MQMApprox`
  — Algorithms 3 and 4 for Markov chains.
* Baselines: :class:`~repro.baselines.dp.EntryDPMechanism`,
  :class:`~repro.baselines.group_dp.GroupDPMechanism`,
  :class:`~repro.baselines.gk16.GK16Mechanism`.
* Substrates: :class:`~repro.distributions.markov.MarkovChain`,
  :class:`~repro.distributions.bayesnet.DiscreteBayesianNetwork`, chain
  families, discrete distributions and their divergences.
* Inference: :class:`~repro.inference.engine.InferenceEngine` — the
  einsum variable-elimination engine behind every general-network
  marginal/conditional (``repro.inference``).
* Accounting: :class:`~repro.core.composition.CompositionAccountant`
  (linear, Theorem 4.4) and :class:`~repro.core.accounting.RenyiAccountant`
  (Rényi-Pufferfish strong composition), with
  :class:`~repro.core.gaussian.GaussianMarkovQuiltMechanism` as the
  Gaussian-noise MQM variant built for the Rényi regime.

Lazy imports
------------
The public names resolve on first attribute access (PEP 562) instead of
at import: ``import repro`` must work in a container with **no numpy**
so the stdlib-only tooling (``python -m repro lint``,
:mod:`repro.staticcheck`, :mod:`repro.faults`) can run before
dependencies install.  The numpy-backed subpackages load the moment one
of their names is touched.  :mod:`repro.faults` alone is imported
eagerly: its import reads ``REPRO_FAULTS`` and arms the process-global
injector, which spawned chaos-test workers rely on.

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-versus-measured record of every table and figure.
"""

from __future__ import annotations

import importlib
from typing import Any

# Eager and stdlib-only: importing repro.faults arms REPRO_FAULTS-spec'd
# injection in worker processes (see repro.faults.injector.install_from_env).
import repro.faults  # noqa: F401

__version__ = "1.0.0"

#: public name -> defining submodule, resolved lazily on first access.
_LAZY_EXPORTS: "dict[str, str]" = {
    "EntryDPMechanism": "repro.baselines",
    "GK16Mechanism": "repro.baselines",
    "GroupDPMechanism": "repro.baselines",
    "IndividualDPMechanism": "repro.baselines",
    "BaseAccountant": "repro.core",
    "Calibration": "repro.core",
    "CompositionAccountant": "repro.core",
    "CountQuery": "repro.core",
    "FluCliqueModel": "repro.core",
    "GaussianMarkovQuiltMechanism": "repro.core",
    "MQMApprox": "repro.core",
    "MQMExact": "repro.core",
    "MarkovChainModel": "repro.core",
    "MarkovQuiltMechanism": "repro.core",
    "Mechanism": "repro.core",
    "PrivateRelease": "repro.core",
    "PufferfishInstantiation": "repro.core",
    "Query": "repro.core",
    "RelativeFrequencyHistogram": "repro.core",
    "RenyiAccountant": "repro.core",
    "Secret": "repro.core",
    "SecretPair": "repro.core",
    "StateFrequencyQuery": "repro.core",
    "TabularDataModel": "repro.core",
    "WassersteinMechanism": "repro.core",
    "adversary_distance": "repro.core",
    "chain_max_influence": "repro.core",
    "effective_epsilon": "repro.core",
    "entrywise_instantiation": "repro.core",
    "pure_rdp_curve": "repro.core",
    "wasserstein_bound": "repro.core",
    "StudyGroup": "repro.data",
    "TimeSeriesDataset": "repro.data",
    "InferenceEngine": "repro.inference",
    "engine_for": "repro.inference",
    "ParallelCalibrator": "repro.parallel",
    "CalibrationCache": "repro.serving",
    "InMemoryLRUCache": "repro.serving",
    "SQLiteCache": "repro.serving",
    "PrivacyEngine": "repro.serving",
    "ReleaseSession": "repro.serving",
    "DiscreteBayesianNetwork": "repro.distributions",
    "DiscreteDistribution": "repro.distributions",
    "FiniteChainFamily": "repro.distributions",
    "IntervalChainFamily": "repro.distributions",
    "MarkovChain": "repro.distributions",
    "max_divergence": "repro.distributions",
    "total_variation": "repro.distributions",
    "w_infinity": "repro.distributions",
}

#: subpackages reachable as ``repro.<name>`` attributes without an
#: explicit ``import repro.<name>``.
_LAZY_SUBMODULES = frozenset(
    {
        "analysis",
        "baselines",
        "core",
        "data",
        "distributions",
        "exceptions",
        "experiments",
        "inference",
        "parallel",
        "service",
        "serving",
        "staticcheck",
        "utils",
    }
)

__all__ = sorted(_LAZY_EXPORTS) + ["faults"]


def __getattr__(name: str) -> Any:
    module_name = _LAZY_EXPORTS.get(name)
    if module_name is not None:
        module = importlib.import_module(module_name)
        value = getattr(module, name)
        globals()[name] = value  # cache: resolve once per process
        return value
    if name in _LAZY_SUBMODULES:
        module = importlib.import_module(f"repro.{name}")
        globals()[name] = module
        return module
    raise AttributeError(f"module 'repro' has no attribute {name!r}")


def __dir__() -> "list[str]":
    return sorted(set(globals()) | set(__all__) | set(_LAZY_SUBMODULES))
