"""Shallow machine-learning substrate.

* :mod:`repro.ml.similarity` — cosine similarity (section 3.3);
* :mod:`repro.ml.kmeans` — K-means with a modularity-style criterion
  for choosing K (section 4.3's vPE grouping);
* :mod:`repro.ml.ocsvm` — one-class SVM (the shallow baseline of
  section 5.2);
* :mod:`repro.ml.pca` — PCA-subspace anomaly detection (Xu et al.,
  SOSP 2009), implemented as an additional reference method.
"""
