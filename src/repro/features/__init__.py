"""Feature extraction over template streams.

* :mod:`repro.features.counts` — template-frequency distributions over
  sliding time windows, used by the cosine-similarity analyses
  (Figure 3, section 3.3) and by K-means vPE grouping.
* :mod:`repro.features.tfidf` — TF-IDF vectors over windows of
  template ids, the input representation of the autoencoder and
  one-class SVM baselines (section 5.2).
"""
