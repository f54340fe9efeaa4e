"""Ordinal soft-labelling toolkit: unimodal supervision targets, soft
cross-entropy training of small classifiers, ordinal evaluation metrics, and
joint-distribution / nonparametric statistical analysis of grading strategies.
"""

__version__ = "0.1.0"
