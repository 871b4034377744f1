"""The paper's primary contribution: LSTM-based predictive analysis.

* :mod:`repro.core.base` — the detector protocol all methods follow;
* :mod:`repro.core.detector` — the LSTM template-language-model
  detector (section 4.2), including minority-pattern over-sampling;
* :mod:`repro.core.grouping` — K-means vPE grouping (section 4.3);
* :mod:`repro.core.adaptation` — incremental updates and transfer-
  learning adaptation after software updates (section 4.3);
* :mod:`repro.core.mapping` — anomaly-to-ticket mapping with
  predictive/infected periods and warning clusters (section 4.1,
  Figure 4);
* :mod:`repro.core.thresholds` — PRC sweeps over the detection
  threshold (section 5.2);
* :mod:`repro.core.pipeline` — the rolling monthly train/detect loop
  over the full trace (section 5.1);
* :mod:`repro.core.baselines` — autoencoder and one-class SVM
  comparison methods (section 5.2), plus PCA and isolation-forest
  references;
* :mod:`repro.core.stream` — the vectorized streaming inference
  engine: per-device ring buffers and cross-device micro-batched
  fused scoring;
* :mod:`repro.core.online` — the streaming runtime of the paper's
  abstract: per-arrival scoring (single messages or ticks) with
  clustered warnings, built on the stream engine;
* :mod:`repro.core.triage` — the section 5.3 four-scenario
  categorization of detected conditions.
"""
