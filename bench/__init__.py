"""The repository benchmark: five workloads from solver to job service.

``python3 bench/run.py --workload NAME ...`` measures one workload in a
fresh process; ``python -m bench run|trace|compare`` drives all of them.
See ``bench/README.md`` for the metrics, the workloads and the method.
"""
