from .network import (
    NetStack,
    forward_members,
    gradient_check,
    load_checkpoint,
    lstm_backward,
    lstm_forward,
    save_checkpoint,
)
from .losses import masked_mse_loss, classifier_loss
from .optimizers import Sgd, Adam
from .training import TrainConfig, TrainLog, train

__all__ = [
    "NetStack", "forward_members", "lstm_forward", "lstm_backward", "gradient_check",
    "save_checkpoint", "load_checkpoint", "masked_mse_loss", "classifier_loss", "Sgd", "Adam",
    "TrainConfig", "TrainLog", "train",
]
