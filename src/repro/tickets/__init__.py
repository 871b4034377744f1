"""Trouble-ticket substrate: data model, processing flow, analytics.

Trouble tickets are the (approximate) ground truth of the paper: every
actionable network event at the 38 vPEs, with a root cause in six
categories, a report time and a repair-finish time.  This package
models the ticket record (``ticket.py``), the operations ticketing
pipeline that turns monitoring signals into tickets with verification
delays and duplicate follow-ups (``processing.py``), and the analyses
of section 3.2 (``analysis.py``).
"""
