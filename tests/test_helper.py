"""The helper thread of a long call (canf._helper.worker): joined on every
exit (the suite-wide fixture in conftest fails a test that leaves one
alive), its task's failure raised in the caller, and a stand-in on the caller."""
import threading
import time

import numpy as np
import pytest

from canf._helper import worker


class TestWorker:
    def test_a_tasks_exception_is_raised_by_its_result(self):
        with worker(True) as helper:
            task = helper.submit(lambda: {}["task"])
            with pytest.raises(KeyError, match="task"):
                task.result()

    def test_a_failing_body_joins_the_thread_once_its_task_is_done(self):
        done = threading.Event()

        def task():
            time.sleep(0.05)
            done.set()

        with pytest.raises(ZeroDivisionError):
            with worker(True) as helper:
                helper.submit(task)
                1 / 0
        assert done.is_set()

    def test_when_the_body_and_a_task_both_fail_the_bodys_exception_is_raised(self):
        with pytest.raises(ZeroDivisionError) as raised:
            with worker(True) as helper:
                helper.submit(lambda: {}["task"])
                1 / 0
        assert raised.value.__context__ is None

    def test_the_thread_runs_under_the_callers_error_state(self):
        with np.errstate(over="raise", invalid="ignore"):
            with worker(True) as helper:
                seen = helper.submit(np.geterr).result()
                name = helper.submit(lambda: threading.current_thread().name).result()
        assert (seen["over"], seen["invalid"]) == ("raise", "ignore")
        assert name == "canf-helper_0"

    def test_the_stand_in_runs_each_task_at_once_on_the_caller(self):
        callers = []

        def task(*args, **kwargs):
            callers.append(threading.current_thread())
            return args, kwargs

        with worker(False) as helper:
            done = helper.submit(task, 1, out=2)
            assert callers == [threading.current_thread()]
            assert done.result() == ((1,), {"out": 2})
            with pytest.raises(KeyError, match="task"):
                helper.submit(lambda: {}["task"])
