"""repro: reproduction of "Predictive Analysis in Network Function
Virtualization" (IMC 2018).

The package builds, end to end, the paper's predictive-analysis system
for NFV deployments:

* a synthetic 38-vPE / 18-month deployment trace -- syslogs, faults,
  maintenance, software updates and trouble tickets
  (:mod:`repro.synthesis`, substituting the proprietary dataset);
* signature-tree template mining over raw syslog text
  (:mod:`repro.logs`);
* an LSTM template-language-model anomaly detector with minority
  over-sampling, K-means vPE grouping, incremental learning and
  transfer-learning adaptation (:mod:`repro.core`), built on a pure
  numpy deep-learning stack (:mod:`repro.nn`);
* autoencoder / one-class-SVM / PCA baselines
  (:mod:`repro.core.baselines`);
* anomaly-to-ticket mapping and the paper's evaluation metrics
  (:mod:`repro.core.mapping`, :mod:`repro.evaluation`).

This init re-exports nothing, and neither do those of the subpackages
that hold serve-path and offline modules side by side (``core``,
``devtools``, ``features``, ``ml``, ``tickets``) and of ``runtime``,
whose ``blas`` module ``repro.__main__`` reads before numpy loads:
import from the submodules
(``from repro.core.detector import LSTMAnomalyDetector``), so that
``python -m repro serve`` loads only the modules it runs.
"""

from repro.version import __version__

__all__ = ["__version__"]
