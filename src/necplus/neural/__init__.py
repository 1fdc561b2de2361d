from .network import (
    NetStack,
    forward_members,
    load_checkpoint,
    lstm_backward,
    lstm_forward,
    save_checkpoint,
)
from .losses import masked_mse_loss, classifier_loss
from .optimizers import Sgd, Adam
from .training import TrainConfig, TrainLog, TrainState, train, train_epochs

__all__ = [
    "NetStack", "forward_members", "lstm_forward", "lstm_backward",
    "save_checkpoint", "load_checkpoint", "masked_mse_loss", "classifier_loss", "Sgd", "Adam",
    "TrainConfig", "TrainLog", "TrainState", "train", "train_epochs",
]
